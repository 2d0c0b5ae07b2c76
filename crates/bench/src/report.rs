//! Table formatting that mirrors the paper's layout.

use crate::runner::{CellResult, Cluster, MapperKind};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Index results as `[scenario label][cluster][mapper] -> cell`.
pub fn index_cells(
    cells: &[CellResult],
) -> BTreeMap<String, BTreeMap<&'static str, BTreeMap<&'static str, &CellResult>>> {
    let mut idx: BTreeMap<String, BTreeMap<&'static str, BTreeMap<&'static str, &CellResult>>> =
        BTreeMap::new();
    for c in cells {
        idx.entry(c.scenario.clone())
            .or_default()
            .entry(c.cluster.label())
            .or_default()
            .insert(c.mapper.label(), c);
    }
    idx
}

/// Renders a Table 2/3-shaped table. `value` extracts the number to print
/// for a cell (`None` prints the paper's "—").
pub fn render_table(
    title: &str,
    scenario_order: &[String],
    cells: &[CellResult],
    value: impl Fn(&CellResult) -> Option<f64>,
    precision: usize,
) -> String {
    let idx = index_cells(cells);
    let mappers = [
        MapperKind::HMN,
        MapperKind::R,
        MapperKind::RA,
        MapperKind::HS,
    ];
    let mut out = String::new();
    let _ = writeln!(out, "### {title}");
    let _ = write!(out, "{:<14}", "scenario");
    for cluster in Cluster::BOTH {
        for m in mappers {
            let _ = write!(
                out,
                "{:>10}",
                format!("{}/{}", cluster_short(cluster), m.label())
            );
        }
    }
    let _ = writeln!(out);

    for label in scenario_order {
        let _ = write!(out, "{label:<14}");
        for cluster in Cluster::BOTH {
            for m in mappers {
                let cell = idx
                    .get(label)
                    .and_then(|by_cluster| by_cluster.get(cluster.label()))
                    .and_then(|by_mapper| by_mapper.get(m.label()));
                match cell.and_then(|c| value(c)) {
                    Some(v) => {
                        let _ = write!(out, "{v:>10.precision$}");
                    }
                    None => {
                        let _ = write!(out, "{:>10}", "—");
                    }
                }
            }
        }
        let _ = writeln!(out);
    }

    // Failures row, as in Table 2.
    let _ = write!(out, "{:<14}", "Failures");
    for cluster in Cluster::BOTH {
        for m in mappers {
            let total: usize = cells
                .iter()
                .filter(|c| c.cluster == cluster && c.mapper == m)
                .map(|c| c.failures)
                .sum();
            let _ = write!(out, "{total:>10}");
        }
    }
    let _ = writeln!(out);
    out
}

fn cluster_short(c: Cluster) -> &'static str {
    match c {
        Cluster::Torus => "T",
        Cluster::Switched => "S",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Measurement;

    fn cell(scenario: &str, cluster: Cluster, mapper: MapperKind, obj: Option<f64>) -> CellResult {
        CellResult {
            scenario: scenario.to_string(),
            cluster,
            mapper,
            successes: obj
                .map(|objective| {
                    vec![Measurement {
                        objective,
                        map_time_s: 0.1,
                        routed_links: 5,
                        networking_time_s: 0.05,
                        experiment_s: None,
                    }]
                })
                .unwrap_or_default(),
            failures: usize::from(obj.is_none()),
        }
    }

    #[test]
    fn renders_values_and_dashes() {
        let cells = vec![
            cell("2.5:1 0.015", Cluster::Torus, MapperKind::HMN, Some(573.9)),
            cell("2.5:1 0.015", Cluster::Torus, MapperKind::HS, None),
        ];
        let table = render_table(
            "objective",
            &["2.5:1 0.015".to_string()],
            &cells,
            |c| c.mean_objective(),
            1,
        );
        assert!(table.contains("573.9"));
        assert!(table.contains("—"));
        assert!(table.contains("Failures"));
    }

    #[test]
    fn failures_row_sums_across_scenarios() {
        let cells = vec![
            cell("a", Cluster::Torus, MapperKind::R, None),
            cell("b", Cluster::Torus, MapperKind::R, None),
        ];
        let table = render_table(
            "objective",
            &["a".to_string(), "b".to_string()],
            &cells,
            |c| c.mean_objective(),
            1,
        );
        let failures_line = table.lines().last().unwrap();
        assert!(failures_line.contains('2'), "failures row: {failures_line}");
    }
}
