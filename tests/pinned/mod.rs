//! Replay of the property-test cases pinned in `proptest-regressions/`,
//! which each suite's `regression_seeds_replay` runs: the vendored
//! proptest neither shrinks nor persists failures.

use proptest::TestRng;
use rand::SeedableRng;

/// The cases a regression file pins, one `cc <test_name> <seed-hex>` line
/// each (blank and `#` lines skipped): each test name with an RNG seeded
/// as the runner seeded that case, so drawing the test's strategies from
/// it regenerates the case.
///
/// # Panics
/// On a malformed line, or if the file pins no case.
pub fn pinned_cases(text: &str) -> Vec<(&str, TestRng)> {
    let cases: Vec<_> = text
        .lines()
        .map(str::trim)
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(
            |line| match line.split_whitespace().collect::<Vec<_>>()[..] {
                ["cc", name, seed] => {
                    let seed = u64::from_str_radix(seed.trim_start_matches("0x"), 16)
                        .unwrap_or_else(|e| panic!("bad seed in {line}: {e}"));
                    (name, TestRng::seed_from_u64(seed))
                }
                _ => panic!("bad regression line: {line}"),
            },
        )
        .collect();
    assert!(!cases.is_empty(), "regression file pinned no cases");
    cases
}
