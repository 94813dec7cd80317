//! Numbers in and out: medians, `/proc` readings, the flat `results.tsv` row form
//! (written and parsed here, because the workspace has a JSON writer but no parser),
//! the one-line JSON result, and `compare`.

use std::fmt::Write as _;

use crate::schema::{unit_of, Better, END_TO_END};

/// Median, extremes and count of a set of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Stat {
    /// # Panics
    ///
    /// Panics on an empty sample set: every metric is measured at least once.
    pub fn of(samples: &[f64]) -> Stat {
        assert!(!samples.is_empty(), "a metric needs at least one sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let mid = sorted.len() / 2;
        let median = if sorted.len() % 2 == 1 {
            sorted[mid]
        } else {
            (sorted[mid - 1] + sorted[mid]) / 2.0
        };
        Stat {
            median,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            n: sorted.len(),
        }
    }

    /// A single reading.
    pub fn single(value: f64) -> Stat {
        Stat::of(&[value])
    }
}

/// One row of `results.tsv`:
/// `metric<TAB>workload<TAB>value<TAB>unit<TAB>min<TAB>max<TAB>n`.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub metric: String,
    pub workload: String,
    pub unit: String,
    pub stat: Stat,
}

pub const TSV_HEADER: &str = "metric\tworkload\tvalue\tunit\tmin\tmax\tn";

impl Row {
    /// A row of a metric the schema knows.
    ///
    /// # Panics
    ///
    /// Panics on a metric outside `schema.rs`: rows are only built from its tables.
    pub fn new(metric: &str, workload: &str, stat: Stat) -> Row {
        let unit = unit_of(metric).unwrap_or_else(|| panic!("{metric} is not in schema.rs"));
        Row {
            metric: metric.to_owned(),
            workload: workload.to_owned(),
            unit: unit.to_owned(),
            stat,
        }
    }

    pub fn tsv(&self) -> String {
        format!(
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            self.metric,
            self.workload,
            self.stat.median,
            self.unit,
            self.stat.min,
            self.stat.max,
            self.stat.n
        )
    }

    /// Parses one line; `None` for anything that is not a row (comments, the header,
    /// the harness's narration), so a child's whole stdout can be fed through.
    pub fn parse(line: &str) -> Option<Row> {
        let fields: Vec<&str> = line.split('\t').collect();
        let [metric, workload, value, unit, min, max, n] = fields[..] else {
            return None;
        };
        if unit_of(metric) != Some(unit) {
            return None;
        }
        Some(Row {
            metric: metric.to_owned(),
            workload: workload.to_owned(),
            unit: unit.to_owned(),
            stat: Stat {
                median: value.parse().ok()?,
                min: min.parse().ok()?,
                max: max.parse().ok()?,
                n: n.parse().ok()?,
            },
        })
    }
}

/// Every row in `text`, in order.
pub fn parse_rows(text: &str) -> Vec<Row> {
    text.lines().filter_map(Row::parse).collect()
}

/// The last stdout line of a one-workload run.
pub fn result_line(attempted: usize, failed: usize, metrics: &[(&str, f64)]) -> String {
    let mut body = String::new();
    for (i, (name, value)) in metrics.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        // JSON has no NaN or infinity; a ratio over an unmeasured base reads 0.
        let value = if value.is_finite() { *value } else { 0.0 };
        let unit = unit_of(name).unwrap_or_else(|| panic!("{name} is not in schema.rs"));
        let _ = write!(
            body,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        failed == 0
    )
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// CPU seconds the process has run so far.  Nothing in the harness spawns a thread and
/// every engine runs inline, so the main thread's on-CPU nanoseconds are the
/// process's (and resolve far finer than the 10 ms ticks of `/proc/self/stat`).
pub fn cpu_seconds() -> f64 {
    let schedstat = std::fs::read_to_string("/proc/self/schedstat").unwrap_or_default();
    schedstat
        .split_whitespace()
        .next()
        .and_then(|ns| ns.parse::<f64>().ok())
        .map_or(0.0, |ns| ns / 1e9)
}

/// Minor page faults of the process so far (field 10 of `/proc/self/stat`).
pub fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; count fields after its `)`.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    after_comm
        .split_whitespace()
        .nth(10 - 3)
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

/// How one `(metric, workload)` pair moved between two result files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Judgement {
    Better,
    WithinBound,
    Worse,
    /// The spread of either side is wider than the bound, and the sides overlap.
    Unresolved,
    /// A per-layer metric: reported, never judged.
    NoBound,
    /// Present in only one file.
    Missing,
}

impl Judgement {
    fn as_str(self) -> &'static str {
        match self {
            Judgement::Better => "better",
            Judgement::WithinBound => "within bound",
            Judgement::Worse => "worse",
            Judgement::Unresolved => "unresolved",
            Judgement::NoBound => "no bound",
            Judgement::Missing => "missing",
        }
    }
}

fn judge(base: &Stat, new: &Stat, better: Better, bound: f64) -> Judgement {
    // Fold "higher is better" onto "lower is better".
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let change = sign * (new.median - base.median) / base.median.abs();
    let spread = |s: &Stat| (s.max - s.min) / s.median.abs();
    let wide = spread(base) > bound || spread(new) > bound;
    let overlap = base.min <= new.max && new.min <= base.max;
    if wide && overlap {
        Judgement::Unresolved
    } else if change > bound {
        Judgement::Worse
    } else if change < -bound {
        Judgement::Better
    } else {
        Judgement::WithinBound
    }
}

/// Compares two `results.tsv` texts row by row with each metric's own bound.
/// Returns the table and whether the comparison fails (a `worse` row, a missing
/// end-to-end row, or any `cases_failed` above zero on either side).
pub fn compare(base_text: &str, new_text: &str) -> (String, bool) {
    let base = parse_rows(base_text);
    let new = parse_rows(new_text);
    let mut table = String::from("metric\tworkload\tbase\tnew\tchange\tjudgement\n");
    let mut failed = false;
    let find = |rows: &[Row], key: &Row| -> Option<Stat> {
        rows.iter()
            .find(|r| r.metric == key.metric && r.workload == key.workload)
            .map(|r| r.stat)
    };
    for row in &base {
        let bounded = END_TO_END.iter().find(|m| m.name == row.metric);
        let other = find(&new, row);
        let judgement = match (other, bounded) {
            (None, _) => Judgement::Missing,
            (Some(_), None) => Judgement::NoBound,
            (Some(other), Some(m)) => judge(&row.stat, &other, m.better, m.bound),
        };
        failed |=
            judgement == Judgement::Worse || (judgement == Judgement::Missing && bounded.is_some());
        let (new_value, change) = match other {
            Some(other) => (
                other.median.to_string(),
                format!(
                    "{:+.1}%",
                    (other.median - row.stat.median) / row.stat.median.abs() * 100.0
                ),
            ),
            None => ("-".to_owned(), "-".to_owned()),
        };
        let _ = writeln!(
            table,
            "{}\t{}\t{}\t{}\t{}\t{}",
            row.metric,
            row.workload,
            row.stat.median,
            new_value,
            change,
            judgement.as_str()
        );
    }
    for row in new.iter().filter(|r| find(&base, r).is_none()) {
        let _ = writeln!(
            table,
            "{}\t{}\t-\t{}\t-\t{}",
            row.metric,
            row.workload,
            row.stat.median,
            Judgement::Missing.as_str()
        );
    }
    for row in base.iter().chain(&new) {
        if row.metric == "cases_failed" && row.stat.max > 0.0 {
            let _ = writeln!(
                table,
                "cases_failed\t{}\t{}\t-\t-\tfailed cases",
                row.workload, row.stat.max
            );
            failed = true;
        }
    }
    (table, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_sets() {
        let odd = Stat::of(&[3.0, 1.0, 2.0]);
        assert_eq!((odd.median, odd.min, odd.max, odd.n), (2.0, 1.0, 3.0, 3));
        assert_eq!(Stat::of(&[4.0, 1.0, 2.0, 3.0]).median, 2.5);
    }

    #[test]
    fn rows_round_trip_and_narration_is_skipped() {
        let row = Row::new("verdict_s", "exhaust-fine", Stat::of(&[4.25, 4.5, 4.125]));
        let text = format!("# host_cores=2\n{TSV_HEADER}\ncase ok\n{}\n", row.tsv());
        assert_eq!(parse_rows(&text), vec![row]);
        // A known metric under the wrong unit is not a row.
        assert_eq!(Row::parse("verdict_s\tw\t1\tms\t1\t1\t1"), None);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_line(9, 0, &[("verdict_s", 4.25), ("setup_s", f64::NAN)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 9, \"failed\": 0, \"metrics\": {\
             \"verdict_s\": {\"value\": 4.25, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
        assert!(result_line(9, 1, &[]).starts_with("{\"correct\": false"));
    }

    #[test]
    fn proc_readings_are_plausible() {
        assert!(peak_rss_mib() > 0.0);
        assert!(minor_faults() > 0);
        assert!(cpu_seconds() >= 0.0);
    }

    fn file(rows: &[(&str, &str, f64, f64, f64)]) -> String {
        rows.iter()
            .map(|(metric, workload, median, min, max)| {
                let stat = Stat {
                    median: *median,
                    min: *min,
                    max: *max,
                    n: 3,
                };
                Row::new(metric, workload, stat).tsv() + "\n"
            })
            .collect()
    }

    #[test]
    fn compare_applies_each_metrics_own_bound() {
        let base = file(&[
            ("verdict_s", "a", 4.0, 3.9, 4.1),
            ("verdict_s", "b", 4.0, 3.9, 4.1),
            ("verdict_s", "c", 4.0, 3.9, 4.1),
            ("verdict_s", "d", 4.0, 3.0, 5.0),
            ("peak_rss_mb", "a", 100.0, 100.0, 100.0),
            ("fingerprint.share", "a", 0.2, 0.2, 0.2),
            ("cases_failed", "a", 0.0, 0.0, 0.0),
        ]);
        let new = file(&[
            ("verdict_s", "a", 4.3, 4.2, 4.4), // +7.5 % of a 25 % bound
            ("verdict_s", "b", 2.8, 2.7, 2.9), // -30 %
            ("verdict_s", "c", 5.2, 5.1, 5.3), // +30 %
            ("verdict_s", "d", 4.5, 4.4, 4.6), // inside the base's own spread
            ("peak_rss_mb", "a", 104.0, 104.0, 104.0),
            ("fingerprint.share", "a", 0.9, 0.9, 0.9),
            ("cases_failed", "a", 0.0, 0.0, 0.0),
        ]);
        let (table, failed) = compare(&base, &new);
        let judgement = |metric: &str, workload: &str| -> String {
            table
                .lines()
                .find(|l| l.starts_with(&format!("{metric}\t{workload}\t")))
                .and_then(|l| l.rsplit('\t').next())
                .unwrap_or_else(|| panic!("no row for {metric}/{workload} in\n{table}"))
                .to_owned()
        };
        assert_eq!(judgement("verdict_s", "a"), "within bound");
        assert_eq!(judgement("verdict_s", "b"), "better");
        assert_eq!(judgement("verdict_s", "c"), "worse");
        assert_eq!(judgement("verdict_s", "d"), "unresolved");
        assert_eq!(judgement("peak_rss_mb", "a"), "within bound");
        assert_eq!(judgement("fingerprint.share", "a"), "no bound");
        assert!(failed, "one row is worse");

        let (_, same) = compare(&base, &base);
        assert!(!same, "a file agrees with itself");
        let failing = file(&[("cases_failed", "a", 1.0, 1.0, 1.0)]);
        assert!(
            compare(&failing, &failing).1,
            "failed cases fail the comparison"
        );
        let without_rss = base.replace("peak_rss_mb", "# peak_rss_mb");
        assert!(
            compare(&base, &without_rss).1,
            "a missing bounded row fails"
        );
    }
}
