//! Disjoint-set forest (union–find) with path halving and union by size.
//!
//! Used by the random-connected-graph generator to add density edges without
//! re-running a full connectivity check after each insertion, by A\*Prune's
//! bandwidth guide to find the widest bottleneck between two nodes, and by
//! [`connected_components`](super::connected_components)' property tests as
//! an independent oracle.

/// A disjoint-set forest over `0..len` elements.
#[derive(Clone, Debug, Default)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    components: usize,
}

impl UnionFind {
    /// Creates `len` singleton sets.
    pub fn new(len: usize) -> Self {
        let mut sets = UnionFind::default();
        sets.reset(len);
        sets
    }

    /// Starts over with `len` singleton sets, keeping the buffers.
    pub fn reset(&mut self, len: usize) {
        self.parent.clear();
        self.parent.extend(0..len as u32);
        self.size.clear();
        self.size.resize(len, 1);
        self.components = len;
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` if the structure tracks no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets currently tracked.
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// Representative of `x`'s set (with path halving).
    pub fn find(&mut self, x: usize) -> usize {
        let mut x = x as u32;
        while self.parent[x as usize] != x {
            let grandparent = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = grandparent;
            x = grandparent;
        }
        x as usize
    }

    /// Merges the sets of `a` and `b`. Returns `true` if they were distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra] >= self.size[rb] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small] = big as u32;
        self.size[big] += self.size[small];
        self.components -= 1;
        true
    }

    /// `true` if `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_as_singletons() {
        let mut uf = UnionFind::new(4);
        assert_eq!(uf.component_count(), 4);
        assert!(!uf.connected(0, 1));
        assert_eq!(uf.len(), 4);
        assert!(!uf.is_empty());
    }

    #[test]
    fn union_merges_and_counts() {
        let mut uf = UnionFind::new(4);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert_eq!(uf.component_count(), 2);
        assert!(uf.union(1, 2));
        assert_eq!(uf.component_count(), 1);
        assert!(uf.connected(0, 3));
    }

    #[test]
    fn redundant_union_returns_false() {
        let mut uf = UnionFind::new(3);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert_eq!(uf.component_count(), 2);
    }

    #[test]
    fn reset_starts_over() {
        let mut uf = UnionFind::new(3);
        uf.union(0, 1);
        uf.reset(4);
        assert_eq!(uf.len(), 4);
        assert_eq!(uf.component_count(), 4);
        assert!(!uf.connected(0, 1));
    }

    #[test]
    fn find_is_idempotent() {
        let mut uf = UnionFind::new(10);
        for i in 1..10 {
            uf.union(0, i);
        }
        let root = uf.find(5);
        assert_eq!(uf.find(5), root);
        assert_eq!(uf.find(9), root);
    }
}
