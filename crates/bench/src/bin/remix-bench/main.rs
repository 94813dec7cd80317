//! `remix-bench` — the workspace's single benchmark.
//!
//! ```text
//! remix-bench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!                          one workload in this process; the last stdout line is the
//!                          JSON result (`BENCHMARK.json`'s command drives this form)
//! remix-bench [--seed N] [--seconds S]
//!                          every workload, untraced then traced, each in a fresh child
//!                          process; prints every row and writes
//!                          target/remix-bench/results.tsv
//! remix-bench compare <a.tsv> <b.tsv>
//!                          judges b against a with each metric's own bound
//! remix-bench --list       workloads and metrics with unit, direction, bound, prediction
//! remix-bench --manifest   the text of BENCHMARK.json
//! ```
//!
//! See `README.md` beside this file for the run protocol and the reasons behind it.

mod expected;
mod layers;
mod options;
mod reference;
mod report;
mod schema;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use report::{peak_rss_mib, result_line, Row, Stat, TSV_HEADER};
use schema::{DEFAULT_SEED, END_TO_END, MIN_TIMED_REPS, PER_LAYER, RUN_SECONDS};
use trace::{Tracer, ROOT};
use workloads::{Prepared, Size, Tally, Workload};

/// Where spill files, span files and `results.tsv` go, relative to the working
/// directory (the repository root, or the driver's checkout).
const OUTPUT_DIR: &str = "target/remix-bench";

/// Fresh set-ups before every rep; `setup_s` is the median of all of a run's.
const SETUPS_PER_REP: usize = 3;

const USAGE: &str = "usage: remix-bench [--workload <name>] [--seed <u64>] [--seconds <s>] \
                     [--trace 0|1] | compare <a.tsv> <b.tsv> | --list | --manifest";

enum Mode {
    Run {
        workload: Option<Workload>,
        seed: u64,
        seconds: f64,
        trace: bool,
    },
    Compare(PathBuf, PathBuf),
    List,
    Manifest,
}

fn parse(args: &[String]) -> Result<Mode, String> {
    if let [first, rest @ ..] = args {
        if first == "compare" {
            return match rest {
                [a, b] => Ok(Mode::Compare(a.into(), b.into())),
                _ => Err("compare takes two result files".to_owned()),
            };
        }
    }
    let (mut workload, mut seed, mut seconds, mut trace) =
        (None, DEFAULT_SEED, RUN_SECONDS as f64, false);
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--list" => return Ok(Mode::List),
            "--manifest" => return Ok(Mode::Manifest),
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload `{name}` (see --list)"))?,
                );
            }
            "--seed" => {
                seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a non-negative number")?;
            }
            "--trace" => {
                trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Mode::Run {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(0, usize::from)
}

/// Prints the rows of one run, then the result line, and turns failures into the exit
/// code.
fn finish(workload: Workload, rows: &[Row], tally: &Tally, metrics: &[(&str, f64)]) -> ExitCode {
    let Tally {
        attempted,
        failures,
    } = tally;
    for failure in failures {
        println!("FAILED {failure}");
    }
    println!("{TSV_HEADER}");
    for row in rows {
        println!("{}", row.tsv());
    }
    let name = workload.name();
    let count = |metric: &str, n: usize| Row::new(metric, name, Stat::single(n as f64)).tsv();
    println!("{}", count("cases_failed", failures.len()));
    println!("{}", count("cases_total", *attempted));
    println!("{}", result_line(*attempted, failures.len(), metrics));
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One untraced run: an untimed warm-up rep, then timed reps for `seconds` (never fewer
/// than [`MIN_TIMED_REPS`]), every rep on a workload set up afresh.
fn run_untraced(workload: Workload, seed: u64, seconds: f64, scratch: &Path) -> ExitCode {
    let mut off = Tracer::new(false);
    let mut tally = Tally::default();

    // A set-up composes and builds everything, then primes the same entry points with
    // the smoke-size pass, whose verdicts are checked like any other.  Set-ups are
    // spread over the run rather than bunched at its start, so their median sees the
    // same stretch of host noise as the reps' does.
    let mut setups = Vec::new();
    let mut set_up = |tally: &mut Tally| -> Prepared {
        let mut latest = None;
        for _ in 0..SETUPS_PER_REP {
            let start = Instant::now();
            let full = Prepared::new(workload, Size::Full, seed, scratch);
            let smoke = Prepared::new(workload, Size::Smoke, seed, scratch);
            let primed = smoke.rep(&mut Tracer::new(false), ROOT);
            setups.push(start.elapsed().as_secs_f64());
            tally.check(&smoke, &primed, None);
            latest = Some(full);
        }
        latest.expect("SETUPS_PER_REP is at least one")
    };

    let prepared = set_up(&mut tally);
    let warm_up = prepared.rep(&mut off, ROOT);
    tally.check(&prepared, &warm_up, None);
    for case in &warm_up.cases {
        println!(
            "case {}/{}: {} {:?}",
            workload.name(),
            case.name,
            case.observed.verdict,
            case.observed.counts
        );
    }

    let window = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_TIMED_REPS || window.elapsed().as_secs_f64() < seconds {
        let prepared = set_up(&mut tally);
        let rep = prepared.rep(&mut off, ROOT);
        tally.check(&prepared, &rep, Some(&warm_up));
        reps.push(rep.seconds);
    }

    let verdict = Stat::of(&reps);
    // Like the warm-up rep, the process's first set-up is cold: run, checked, left out.
    let setup = Stat::of(&setups[1..]);
    let peak_rss = peak_rss_mib();
    println!(
        "# warm-up rep {:.3} s (cold), timed reps {reps:.3?}",
        warm_up.seconds
    );
    let rows: Vec<Row> = END_TO_END
        .iter()
        .map(|m| {
            let stat = match m.name {
                "verdict_s" => verdict,
                "peak_rss_mb" => Stat::single(peak_rss),
                "setup_s" => setup,
                other => panic!("{other} is an end-to-end metric nothing measures"),
            };
            Row::new(m.name, workload.name(), stat)
        })
        .collect();
    let metrics: Vec<(&str, f64)> = rows
        .iter()
        .map(|row| (row.metric.as_str(), row.stat.median))
        .collect();
    finish(workload, &rows, &tally, &metrics)
}

/// One traced run: the per-layer numbers of one workload, spans written at exit.
fn run_traced(workload: Workload, seed: u64, scratch: &Path, process_start: Instant) -> ExitCode {
    let mut tracer = Tracer::new(true);
    let pass = layers::traced_pass(
        workload,
        Size::Full,
        seed,
        scratch,
        &mut tracer,
        process_start,
    );
    let path = scratch.join(format!("trace-{}.json", workload.name()));
    match tracer.write_json(&path) {
        Ok(()) => println!("# {} spans written to {}", tracer.len(), path.display()),
        Err(e) => eprintln!("remix-bench: cannot write {}: {e}", path.display()),
    }
    let rows: Vec<Row> = pass
        .metrics
        .iter()
        .map(|(metric, value)| Row::new(metric, workload.name(), Stat::single(*value)))
        .collect();
    // The result line carries every per-layer metric; one this workload does not
    // exercise reads 0.
    let metrics: Vec<(&str, f64)> = PER_LAYER
        .iter()
        .map(|m| {
            let measured = pass.metrics.iter().find(|(name, _)| *name == m.name);
            (m.name, measured.map_or(0.0, |(_, value)| *value))
        })
        .collect();
    finish(workload, &rows, &pass.tally, &metrics)
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The full run: every workload untraced, then every workload traced, one fresh child
/// process of this binary each, so a peak RSS belongs to one workload.
fn run_all(seed: u64, seconds: f64, scratch: &Path) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("remix-bench: cannot find its own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let started = Instant::now();
    let mut rows = Vec::new();
    let mut all_passed = true;
    for trace in ["0", "1"] {
        for workload in Workload::ALL {
            println!("== {} (trace {trace})", workload.name());
            let child = Command::new(&exe)
                .args(["--workload", workload.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", trace])
                .output();
            let output = match child {
                Ok(output) => output,
                Err(e) => {
                    eprintln!("remix-bench: cannot start the child: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            // Everything but the JSON result line, which is for the driver.
            for line in stdout.lines().filter(|l| !l.starts_with('{')) {
                println!("{line}");
            }
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            rows.extend(report::parse_rows(&stdout));
            all_passed &= output.status.success();
        }
    }

    let mut text = format!(
        "# remix-bench seed={seed} seconds={seconds} workers=1\n\
         # host_cores={}\n# toolchain={}\n# commit={}\n{TSV_HEADER}\n",
        host_cores(),
        first_line_of("rustc", &["--version"]),
        first_line_of("git", &["rev-parse", "--short", "HEAD"]),
    );
    for row in &rows {
        text.push_str(&row.tsv());
        text.push('\n');
    }
    let path = scratch.join("results.tsv");
    if let Err(e) = std::fs::write(&path, &text) {
        eprintln!("remix-bench: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!(
        "== {} rows written to {} in {:.0} s",
        rows.len(),
        path.display(),
        started.elapsed().as_secs_f64()
    );
    if all_passed {
        ExitCode::SUCCESS
    } else {
        eprintln!("remix-bench: at least one case failed");
        ExitCode::FAILURE
    }
}

fn compare_files(base: &Path, new: &Path) -> ExitCode {
    let read = |path: &Path| {
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    match (read(base), read(new)) {
        (Ok(base), Ok(new)) => {
            let (table, failed) = report::compare(&base, &new);
            print!("{table}");
            if failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("remix-bench: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse(&args) {
        Ok(mode) => mode,
        Err(message) => {
            eprintln!("remix-bench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (workload, seed, seconds, trace) = match mode {
        Mode::List => {
            print!("{}", schema::list_text());
            return ExitCode::SUCCESS;
        }
        Mode::Manifest => {
            print!("{}", schema::manifest_json());
            return ExitCode::SUCCESS;
        }
        Mode::Compare(base, new) => return compare_files(&base, &new),
        Mode::Run {
            workload,
            seed,
            seconds,
            trace,
        } => (workload, seed, seconds, trace),
    };

    // A row's meaning must not depend on the shell: the engines' `Default` options
    // read these hooks, and so might anything the harness forgot to pin.
    let hooks = options::remix_variables(
        std::env::vars_os().filter_map(|(name, _)| name.into_string().ok()),
    );
    if !hooks.is_empty() {
        eprintln!("remix-bench: refusing to run with {} set", hooks.join(", "));
        return ExitCode::from(2);
    }
    let scratch = PathBuf::from(OUTPUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("remix-bench: cannot create {OUTPUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }

    let Some(workload) = workload else {
        return run_all(seed, seconds, &scratch);
    };
    println!(
        "# remix-bench workload={} seed={seed} seconds={seconds} trace={} workers=1 host_cores={}",
        workload.name(),
        trace as u8,
        host_cores()
    );
    if trace {
        run_traced(workload, seed, &scratch, process_start)
    } else {
        run_untraced(workload, seed, seconds, &scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(args: &[&str]) -> Result<Mode, String> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_argument_form_parses() {
        let mode = parsed(&[
            "--workload",
            "refine",
            "--seed",
            "11",
            "--seconds",
            "8",
            "--trace",
            "1",
        ]);
        let Ok(Mode::Run {
            workload,
            seed,
            seconds,
            trace,
        }) = mode
        else {
            panic!("driver form must parse");
        };
        assert_eq!(
            (workload, seed, seconds, trace),
            (Some(Workload::Refine), 11, 8.0, true)
        );
        assert!(matches!(
            parsed(&[]),
            Ok(Mode::Run {
                workload: None,
                seed: DEFAULT_SEED,
                trace: false,
                ..
            })
        ));
        assert!(matches!(
            parsed(&["compare", "a", "b"]),
            Ok(Mode::Compare(..))
        ));
        assert!(matches!(parsed(&["--list"]), Ok(Mode::List)));
    }

    #[test]
    fn bad_arguments_are_refused() {
        for args in [
            &["--workload", "exhaust"][..],
            &["--workload"],
            &["--seed", "-1"],
            &["--seconds", "NaN"],
            &["--trace", "2"],
            &["compare", "a"],
            &["--smoke"],
        ] {
            assert!(parsed(args).is_err(), "{args:?}");
        }
    }
}
