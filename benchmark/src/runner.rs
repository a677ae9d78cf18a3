//! Command line: the in-process workload run the driver calls, and the
//! `run` / `repeat` / `spread` / `compare` / `bless` / `smoke` /
//! `manifest` commands around it.

use crate::harness::{Ctx, Report};
use crate::json::{self, Value};
use crate::spec::{self, MetricSpec};
use crate::stats::{median, relative_iqr};
use crate::{check, compare, host, workloads};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Prefix of the line carrying a run's full detail (extremes, sample
/// counts, failures) ahead of the driver's result line.
const DETAIL_PREFIX: &str = "#detail ";

/// Parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Cli {
    command: String,
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    bless: bool,
    out: Option<PathBuf>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("--workload")?),
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !s.is_finite() || s < 0.0 {
                    return Err("--seconds must be finite and non-negative".into());
                }
                cli.seconds = Some(s);
            }
            // `--trace 0|1` as the driver passes it, or bare `--trace`.
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--bless" => cli.bless = true,
            "--out" => cli.out = Some(PathBuf::from(value("--out")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            word if cli.command.is_empty() => cli.command = word.to_string(),
            word => cli.positional.push(word.to_string()),
        }
    }
    if cli.command.is_empty() {
        cli.command = "measure".into();
    }
    Ok(cli)
}

/// Runs the command line. `Ok(true)` is success, `Ok(false)` a failed
/// check or comparison, `Err` a usage error.
pub fn main(start: Instant, args: &[String]) -> Result<bool, String> {
    let cli = parse_cli(args)?;
    match cli.command.as_str() {
        "measure" => measure(start, &cli),
        "run" => {
            let (doc, ok) = run_set(&cli, cli.trace)?;
            let path = match &cli.out {
                Some(p) => p.clone(),
                None => out_file("result.json")?,
            };
            write(&path, &doc)?;
            println!("result written to {}", path.display());
            Ok(ok)
        }
        "repeat" => repeat(&cli),
        "spread" => spread(&cli),
        "compare" => {
            let [a, b] = cli.positional.as_slice() else {
                return Err("compare takes two result files".into());
            };
            let rows = compare::rows(&read(Path::new(a))?, &read(Path::new(b))?);
            if rows.is_empty() {
                return Err("the two files share no metric".into());
            }
            Ok(compare::print(&rows, false) == 0)
        }
        "bless" => bless(&cli),
        "smoke" => Ok(smoke(start)),
        "manifest" => {
            print!("{}", manifest().to_pretty());
            Ok(true)
        }
        other => Err(format!("unknown command {other}")),
    }
}

/// The workload `--workload` names, or all of them.
fn selected(cli: &Cli) -> Vec<&str> {
    match &cli.workload {
        Some(w) => vec![w.as_str()],
        None => spec::WORKLOADS.iter().map(|(n, _)| *n).collect(),
    }
}

fn specs(trace: bool) -> &'static [MetricSpec] {
    if trace {
        spec::PER_LAYER
    } else {
        spec::END_TO_END
    }
}

/// One workload in this process: prints every metric as `name unit value`,
/// then the detail line, then the driver's result object as the last line.
fn measure(start: Instant, cli: &Cli) -> Result<bool, String> {
    let name = cli
        .workload
        .as_deref()
        .ok_or("--workload is required (or use the `run` command for all five)")?;
    let ctx = Ctx {
        start,
        seed: cli.seed,
        seconds: cli.seconds.unwrap_or(spec::RUN_SECONDS as f64),
        trace: cli.trace || cli.bless,
        bless: cli.bless,
    };
    let report = workloads::run(name, &ctx).ok_or_else(|| format!("unknown workload {name}"))?;
    if cli.bless {
        return save_blessed(name, &report);
    }
    let specs = specs(ctx.trace);
    print_metrics(name, &report, specs);
    println!("{DETAIL_PREFIX}{}", report.detail_json(specs).to_compact());
    println!("{}", report.driver_json(specs).to_compact());
    Ok(report.correct())
}

fn print_metrics(workload: &str, report: &Report, specs: &[MetricSpec]) {
    for m in specs {
        println!(
            "{} {} {}",
            m.name,
            m.unit,
            Value::Num(report.value(m.name)).to_compact()
        );
    }
    println!(
        "failed_ratio ratio {}",
        report.failed as f64 / report.attempted.max(1) as f64
    );
    if report.cpus_limited {
        println!("{workload}: cpus_limited (fewer CPUs than threads; parallel timings unresolved)");
    }
    for f in &report.failures {
        eprintln!("FAILED {workload}: {f}");
    }
}

fn save_blessed(name: &str, report: &Report) -> Result<bool, String> {
    for f in &report.failures {
        eprintln!("FAILED {name}: {f}");
    }
    if !report.correct() {
        eprintln!("{name}: not blessing a run with failed checks");
        return Ok(false);
    }
    let doc = report
        .golden
        .as_ref()
        .ok_or_else(|| format!("{name} produced nothing to bless"))?;
    let path = check::save_golden(name, doc)?;
    println!("blessed {}", path.display());
    Ok(true)
}

/// Runs one workload in a child process (a re-exec of this program), so
/// peak memory and executor pools never leak from one workload into the
/// next. Returns the child's detail object and whether it succeeded.
fn child(workload: &str, cli: &Cli, trace: bool) -> Result<(Value, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(s) = cli.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .ok_or_else(|| format!("the {workload} run printed no result ({})", out.status))?;
    Ok((json::parse(detail)?, out.status.success()))
}

/// One full set: every workload (or the selected one) untraced, and
/// traced as well when `traced`. Prints each metric as it arrives.
fn run_set(cli: &Cli, traced: bool) -> Result<(Value, bool), String> {
    let mut all_ok = true;
    let mut per_workload = Value::obj();
    let selected = selected(cli);
    for name in selected {
        let mut entry = Value::obj();
        for trace in [false, true] {
            if trace && !traced {
                continue;
            }
            let (detail, ok) = child(name, cli, trace)?;
            all_ok &= ok;
            println!(
                "== {name} ({})",
                if trace { "per-layer" } else { "end-to-end" }
            );
            for (metric, v) in detail.get("metrics").map_or(&[][..], Value::fields) {
                println!(
                    "{metric} {} {} (min {} max {} n={})",
                    v.get("unit").and_then(Value::as_str).unwrap_or("?"),
                    v.get("value").map_or("?".into(), Value::to_compact),
                    v.get("min").map_or("?".into(), Value::to_compact),
                    v.get("max").map_or("?".into(), Value::to_compact),
                    v.get("samples").map_or("?".into(), Value::to_compact),
                );
            }
            println!(
                "failed_ratio ratio {}",
                detail
                    .get("failed_ratio")
                    .map_or("?".into(), Value::to_compact)
            );
            if detail.get("cpus_limited").and_then(Value::as_bool) == Some(true) {
                println!("{name}: cpus_limited");
            }
            entry.set(if trace { "per_layer" } else { "end_to_end" }, detail);
        }
        per_workload.set(name, entry);
    }
    let doc = Value::obj()
        .with("schema", "pheig-benchmark/v1")
        .with("host", host::host_block())
        .with("seed", cli.seed)
        .with("seconds", cli.seconds.unwrap_or(spec::RUN_SECONDS as f64))
        .with("traced", traced)
        .with("workloads", per_workload);
    Ok((doc, all_ok))
}

/// `repeat K`: K full sets of the same code; every consecutive pair must
/// agree within each end-to-end metric's bound, and (with `--trace`) every
/// exact count and `failed_ratio` must repeat exactly.
fn repeat(cli: &Cli) -> Result<bool, String> {
    let sets = count_arg(cli, "repeat")?;
    if sets < 2 {
        return Err("repeat needs at least 2 sets".into());
    }
    let mut ok = true;
    let mut docs = Vec::new();
    for k in 0..sets {
        println!("==== set {} of {sets}", k + 1);
        let (doc, set_ok) = run_set(cli, cli.trace)?;
        ok &= set_ok;
        write(&out_file(&format!("repeat_{}.json", k + 1))?, &doc)?;
        docs.push(doc);
    }
    for pair in docs.windows(2) {
        let rows = compare::rows(&pair[0], &pair[1]);
        ok &= compare::print(&rows, true) == 0;
    }
    Ok(ok)
}

fn count_arg(cli: &Cli, what: &str) -> Result<usize, String> {
    match cli.positional.as_slice() {
        [k] => k.parse().map_err(|_| format!("{what} takes a count")),
        _ => Err(format!("{what} takes one count, e.g. `{what} 10`")),
    }
}

/// `spread K`: the acceptance check the driver applies to a benchmark. K
/// untraced runs per workload, each with another seed; for every
/// end-to-end metric the interquartile range of the K values as a share of
/// their median must stay within the metric's bound (`setup_s` is
/// reported, not judged). The aim is a third of the bound.
fn spread(cli: &Cli) -> Result<bool, String> {
    let runs = count_arg(cli, "spread")?;
    if runs < 2 {
        return Err("spread needs at least 2 runs".into());
    }
    let selected = selected(cli);
    let mut ok = true;
    let mut doc = Value::obj();
    println!(
        "{:<15} {:<13} {:>12} {:>10} {:>6}  verdict",
        "workload", "metric", "median", "iqr/median", "bound"
    );
    for name in selected {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); spec::END_TO_END.len()];
        for k in 0..runs {
            let seeded = Cli {
                seed: cli.seed + k as u64,
                seconds: cli.seconds,
                ..Cli::default()
            };
            let (detail, run_ok) = child(name, &seeded, false)?;
            ok &= run_ok;
            for (m, column) in spec::END_TO_END.iter().zip(&mut values) {
                let v = detail.path(&["metrics", m.name, "value"]);
                column.push(v.and_then(Value::as_f64).unwrap_or(f64::NAN));
            }
        }
        let mut entry = Value::obj();
        for (m, column) in spec::END_TO_END.iter().zip(&values) {
            let bound = m.bound.unwrap_or(0.0);
            let iqr = relative_iqr(column).unwrap_or(f64::NAN);
            let verdict = if m.name == "setup_s" {
                "not judged"
            } else if iqr <= bound / 3.0 {
                "steady"
            } else if iqr <= bound {
                "within bound"
            } else {
                ok = false;
                "TOO WIDE"
            };
            println!(
                "{name:<15} {:<13} {:>12.6} {iqr:>10.4} {bound:>6}  {verdict}",
                m.name,
                median(column)
            );
            entry.set(m.name, Value::from(&column[..]));
        }
        doc.set(name, entry);
    }
    write(&out_file("spread.json")?, &doc)?;
    Ok(ok)
}

/// `bless`: regenerates golden/<workload>.json from a traced seed-0 run
/// of each workload (each in its own child process).
fn bless(cli: &Cli) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let selected = selected(cli);
    let mut ok = true;
    for name in selected {
        let status = Command::new(&exe)
            .args(["--workload", name, "--seed", "0", "--bless"])
            .stdin(Stdio::null())
            .status()
            .map_err(|e| format!("cannot start the {name} run: {e}"))?;
        ok &= status.success();
    }
    Ok(ok)
}

/// `smoke`: the legacy n = 96 sweep through the workload code path, both
/// modes, in about a second. It must read exactly 948 matvecs.
pub fn smoke(start: Instant) -> bool {
    let case = workloads::sweep::smoke();
    let mut ok = true;
    for trace in [false, true] {
        let ctx = Ctx {
            start,
            seed: 0,
            seconds: 0.5,
            trace,
            bless: false,
        };
        let report = workloads::sweep::run(&case, &ctx);
        print_metrics(case.name, &report, specs(trace));
        ok &= report.correct();
        if trace {
            let matvecs = report.value("core.solver.matvecs");
            if matvecs != 948.0 {
                eprintln!("FAILED smoke: {matvecs} matvecs at n = 96, the pin is 948");
                ok = false;
            }
        }
    }
    println!("smoke {}", if ok { "ok" } else { "FAILED" });
    ok
}

/// `BENCHMARK.json` as `spec.rs` defines it.
pub fn manifest() -> Value {
    let metric = |m: &MetricSpec| {
        let v = Value::obj()
            .with("name", m.name)
            .with("unit", m.unit)
            .with("better", m.better.as_str());
        match m.bound {
            Some(b) => v.with("bound", b),
            None => v,
        }
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Value::obj()
        .with(
            "command",
            Value::Arr(command.iter().map(|&s| s.into()).collect()),
        )
        .with("paths", Value::Arr(vec!["benchmark".into()]))
        .with("run_seconds", spec::RUN_SECONDS)
        .with(
            "workloads",
            Value::Arr(
                spec::WORKLOADS
                    .iter()
                    .map(|(n, why)| Value::obj().with("name", *n).with("why", *why))
                    .collect(),
            ),
        )
        .with(
            "end_to_end",
            Value::Arr(spec::END_TO_END.iter().map(metric).collect()),
        )
        .with(
            "per_layer",
            Value::Arr(spec::PER_LAYER.iter().map(metric).collect()),
        )
}

fn out_file(name: &str) -> Result<PathBuf, String> {
    host::out_dir()
        .map(|d| d.join(name))
        .map_err(|e| format!("cannot create benchmark/out: {e}"))
}

fn write(path: &Path, doc: &Value) -> Result<(), String> {
    std::fs::write(path, doc.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

fn read(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_form_and_the_commands() {
        let cli = parse_cli(&args(
            "--workload sweep_par2 --seed 7 --seconds 20 --trace 0",
        ))
        .unwrap();
        assert_eq!(cli.command, "measure");
        assert_eq!(cli.workload.as_deref(), Some("sweep_par2"));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (7, Some(20.0), false));
        assert!(parse_cli(&args("--workload w --trace 1")).unwrap().trace);

        let cli = parse_cli(&args("run --trace --seed 3")).unwrap();
        assert_eq!(
            (cli.command.as_str(), cli.trace, cli.seed),
            ("run", true, 3)
        );
        let cli = parse_cli(&args("compare a.json b.json")).unwrap();
        assert_eq!(cli.positional, ["a.json", "b.json"]);
        let cli = parse_cli(&args("repeat 2 --trace")).unwrap();
        assert_eq!(
            (cli.positional.as_slice(), cli.trace),
            (&["2".to_string()][..], true)
        );

        for bad in [
            "--seed",
            "--seed x",
            "--seconds -1",
            "--seconds inf",
            "--frobnicate",
        ] {
            assert!(parse_cli(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn usage_errors_are_reported_not_run() {
        let now = Instant::now();
        assert!(main(now, &args("--seed 1")).is_err(), "no workload");
        assert!(main(now, &args("--workload nope")).is_err());
        assert!(main(now, &args("compare only_one.json")).is_err());
        assert!(main(now, &args("repeat 1")).is_err());
        assert!(main(now, &args("frobnicate")).is_err());
    }

    #[test]
    fn manifest_is_the_committed_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let doc = manifest();
        assert_eq!(json::parse(&text).unwrap(), doc);
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }

    #[test]
    fn smoke_reads_948_matvecs() {
        assert!(smoke(Instant::now()));
    }

    /// A run passes against the golden file blessed from it and fails —
    /// which `measure` turns into a non-zero exit — once one golden
    /// crossing is corrupted.
    #[test]
    fn corrupted_golden_crossing_fails_the_run() {
        // Its own name, so its trace file is not the smoke test's.
        let case = workloads::sweep::SweepCase {
            name: "sweep_golden_test",
            ..workloads::sweep::smoke()
        };
        let ctx = |trace, bless| Ctx {
            start: Instant::now(),
            seed: 0,
            seconds: 0.0,
            trace,
            bless,
        };
        let blessed = workloads::sweep::run_with_golden(&case, &ctx(true, true), None);
        assert!(blessed.correct(), "{:?}", blessed.failures);
        let golden = blessed
            .golden
            .expect("a blessing run gathers golden content");
        for trace in [false, true] {
            let run =
                workloads::sweep::run_with_golden(&case, &ctx(trace, false), Some(golden.clone()));
            assert!(run.correct(), "{:?}", run.failures);
        }

        let mut crossings = golden
            .get("crossings")
            .and_then(Value::as_f64_list)
            .unwrap();
        assert!(!crossings.is_empty());
        crossings[0] += 1e-2;
        let mut corrupted = golden.clone();
        corrupted.set("crossings", Value::from(&crossings[..]));
        let run = workloads::sweep::run_with_golden(&case, &ctx(false, false), Some(corrupted));
        assert!(!run.correct());
        assert!(
            run.failed >= 1 && run.failures[0].contains("crossing 0"),
            "{:?}",
            run.failures
        );

        // A wrong exact count fails the traced run the same way.
        let mut miscounted = golden.clone();
        let mut counts = golden.get("counts").cloned().unwrap();
        counts.set("core.solver.matvecs", 947.0);
        miscounted.set("counts", counts);
        let run = workloads::sweep::run_with_golden(&case, &ctx(true, false), Some(miscounted));
        assert!(
            run.failures
                .iter()
                .any(|f| f.contains("core.solver.matvecs")),
            "{:?}",
            run.failures
        );
    }
}
