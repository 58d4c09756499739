//! Side-by-side comparison of two runs' metrics.
//!
//! `ufcbench diff BASE NEW` reads two files that each end with a result
//! line (a saved standard output, or the `.trace.json` a traced run writes)
//! and prints every metric next to its base, with the change as a share of
//! the base. Metrics present on one side only are listed too.

use std::collections::BTreeMap;

use crate::json::metrics_of;

/// The result line of a saved run: its last non-empty line.
///
/// # Errors
///
/// When the text has no result line with metrics.
pub fn load(text: &str) -> Result<BTreeMap<String, (f64, String)>, String> {
    let line = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("empty file")?;
    metrics_of(line)
}

/// Renders the comparison table.
#[must_use]
pub fn render(
    base: &BTreeMap<String, (f64, String)>,
    new: &BTreeMap<String, (f64, String)>,
) -> String {
    let mut names: Vec<&String> = base.keys().chain(new.keys()).collect();
    names.sort();
    names.dedup();
    let width = names.iter().map(|n| n.len()).max().unwrap_or(6).max(6);
    let mut out = format!(
        "{:<width$}  {:>14}  {:>14}  {:>9}  unit\n",
        "metric", "base", "new", "change"
    );
    for name in names {
        let cell = |side: &BTreeMap<String, (f64, String)>| {
            side.get(name)
                .map_or("-".to_owned(), |(v, _)| format!("{v:.6}"))
        };
        let change = match (base.get(name), new.get(name)) {
            (Some((b, _)), Some((n, _))) if *b != 0.0 => {
                format!("{:+.1}%", (n - b) / b.abs() * 100.0)
            }
            _ => "-".to_owned(),
        };
        let unit = new
            .get(name)
            .or_else(|| base.get(name))
            .map_or("", |(_, u)| u.as_str());
        out.push_str(&format!(
            "{name:<width$}  {:>14}  {:>14}  {change:>9}  {unit}\n",
            cell(base),
            cell(new)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_both_sides_and_one_sided_metrics() {
        let base = load(
            "host: 2 cores\n{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"a.ms\": {\"value\": 2.0, \"unit\": \"ms\"}, \"gone\": {\"value\": 1.0, \"unit\": \"count\"}}}\n",
        )
        .unwrap();
        let new = load(
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"a.ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"added\": {\"value\": 3.0, \"unit\": \"s\"}}}",
        )
        .unwrap();
        let table = render(&base, &new);
        let row = |name: &str| {
            table
                .lines()
                .find(|l| l.starts_with(name))
                .unwrap()
                .to_owned()
        };
        assert!(row("a.ms").contains("-25.0%"), "{table}");
        assert!(row("gone").contains('-'));
        assert!(row("added").ends_with(" s"));
        assert_eq!(table.lines().count(), 4);
    }

    #[test]
    fn load_rejects_a_file_without_a_result_line() {
        assert!(load("").is_err());
        assert!(load("just text\n").is_err());
    }
}
