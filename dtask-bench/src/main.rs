//! `dtask-bench` — the repository's benchmark: five named workloads,
//! end-to-end and per-layer metrics with fixed regression bounds, output
//! checks, and a traced pass. See README.md next to this package for the
//! metric ↔ layer ↔ workload table and the pinned API surface.
//!
//! One workload in this process (what `BENCHMARK.json`'s command runs):
//!
//! ```text
//! dtask-bench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! prints the result as the last line of standard output. Without
//! `--workload` every workload runs in a child process of its own (a re-exec
//! of this binary), so peak memory and set-up time are per workload.

mod measure;
mod report;
mod spans;
mod workloads;

use dtask::Json;
use report::{MetricDef, END_TO_END, PER_LAYER};
use spans::Spans;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use workloads::{Scale, Segment, Variant, WORKLOADS};

/// Set-up is done this many times per untraced run and `setup_s` is the
/// lower quartile of the times, like a unit time: a storm's warm-up rounds
/// take half as long again when the cluster's threads land on two cores.
const SETUP_REPEATS: usize = 5;
/// Set-up is not repeated once it has taken this long in total: on a starved
/// box (a round 18 times slower was seen once) five set-ups and ten segments
/// would outlive the 180 s a run is allowed.
const SETUP_BUDGET: Duration = Duration::from_secs(20);
/// An untraced run measures at least this many segments, however slow.
const MIN_SEGMENTS: usize = 10;
/// A traced run measures at least this many segments of each variant.
const MIN_TRACED_ROUNDS: usize = 2;
/// A run that outlives its measuring time by this much is stuck: it is
/// killed and counts as failed, it never hangs the caller.
const WATCHDOG_GRACE: Duration = Duration::from_secs(150);

const USAGE: &str = "usage: dtask-bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                   [--traced] [--smoke] [--selfcheck] [--out PATH] [--list]
  --workload NAME  run one workload in this process; the result is the last line of stdout
  --seed N         seed of the generated inputs (default 1)
  --seconds S      seconds one run measures (default 15, as in BENCHMARK.json)
  --trace 0|1      with --workload: 0 = end-to-end metrics, 1 = traced pass, per-layer metrics
  --traced         without --workload: follow the end-to-end pass with a traced pass
  --smoke          every workload at about 1% of its units, checks on
  --selfcheck      run the full set twice, order alternated; fail if any end-to-end
                   metric differs by more than its own bound
  --out PATH       where the summary goes (default <target>/dtask-bench/run.json)
  --list           print the workloads and why each was chosen";

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    traced: bool,
    smoke: bool,
    selfcheck: bool,
    list: bool,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        traced: false,
        smoke: false,
        selfcheck: false,
        list: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a number of seconds")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--traced" => args.traced = true,
            "--smoke" => args.smoke = true,
            "--selfcheck" => args.selfcheck = true,
            "--list" => args.list = true,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// Where run artefacts go: under the build's target directory, untracked.
fn artefact_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("dtask-bench")
}

fn write_artefact(path: &Path, doc: &Json) {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, doc.to_string_pretty()));
    match written {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// `VmHWM` of this process in MB: the most memory it ever held.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one workload run hands back: the contract's result line and a
/// detail document for people.
struct RunOutput {
    result: Json,
    detail: Json,
}

impl RunOutput {
    fn correct(&self) -> bool {
        self.result.get("correct") == Some(&Json::Bool(true))
    }
}

/// Run one workload in this process.
fn run_workload(name: &str, args: &Args) -> Result<RunOutput, String> {
    let scale = if args.smoke {
        Scale::Smoke
    } else {
        Scale::Full
    };
    let spans = args.trace.then(Spans::new);
    let spans = spans.as_ref();

    // Set-up, several times over in an untraced run: inputs, reference
    // result, clusters, warm-up units.
    let repeats = if args.trace || args.smoke {
        1
    } else {
        SETUP_REPEATS
    };
    let mut setup_times = Vec::with_capacity(repeats);
    let mut workload = None;
    let setting_up = Instant::now();
    for _ in 0..repeats {
        if workload.is_some() && setting_up.elapsed() > SETUP_BUDGET {
            break;
        }
        drop(workload.take());
        let t0 = Instant::now();
        let mut w = workloads::build(name, args.seed, scale)
            .ok_or_else(|| format!("unknown workload {name} (try --list)"))?;
        w.setup(spans)?;
        setup_times.push(t0.elapsed().as_secs_f64());
        workload = Some(w);
    }
    let mut workload = workload.expect("at least one set-up");
    let shape = workload.shape();
    let probes = match spans {
        Some(spans) => Some(report::Probes {
            gflops: workloads::kernels::kernel_probe(spans, args.seed)?,
            rtt_us: workloads::kernels::transport_rtt_us(workload.own_tcp())?,
        }),
        None => None,
    };

    // The timed section: whole segments of fixed work, as many as fit.
    let (variants, min_rounds): (&[Variant], usize) = match (args.trace, args.smoke) {
        (true, _) => (&Variant::ALL, MIN_TRACED_ROUNDS),
        (false, true) => (&[Variant::Plain], 2),
        (false, false) => (&[Variant::Plain], MIN_SEGMENTS),
    };
    let timed = Instant::now();
    let mut segments: Vec<Segment> = Vec::new();
    let mut rounds = 0;
    while rounds < min_rounds || (!args.smoke && timed.elapsed().as_secs_f64() < args.seconds) {
        for &variant in variants {
            segments.push(workload.run_segment(variant, spans));
        }
        rounds += 1;
    }
    let timed_s = timed.elapsed().as_secs_f64();

    let mut failures: Vec<String> = segments
        .iter()
        .flat_map(|s| &s.units)
        .filter_map(|u| u.failure.clone())
        .collect();
    let attempted: usize = segments.iter().map(|s| s.units.len()).sum();
    failures.extend(workload.cross_unit_failures());
    let own_tcp = workload.own_tcp();
    drop(workload);

    let mut detail = Json::obj()
        .set("workload", name)
        .set("seed", args.seed)
        .set("seconds", args.seconds)
        .set("trace", args.trace)
        .set("smoke", args.smoke)
        .set("timed_s", timed_s)
        .set("segments", segments.len())
        .set("units", attempted)
        .set("units_per_segment", shape.units_per_segment)
        .set("tasks_per_unit", shape.tasks_per_unit)
        .set("payload_bytes_per_unit", shape.payload_bytes_per_unit)
        .set(
            "available_parallelism",
            std::thread::available_parallelism().map_or(0, usize::from),
        );
    for variant in Variant::ALL {
        let rates = report::segment_rates(&segments, &shape, variant);
        if !rates.is_empty() {
            detail = detail.set(
                &format!("segment_tasks_per_s.{}", variant.name()),
                Json::Arr(rates.into_iter().map(Json::from).collect()),
            );
        }
    }

    let metrics = if let (Some(spans), Some(probes)) = (spans, &probes) {
        let traced = report::reduce_traced(&segments);
        if !traced.phases.is_valid() {
            failures.push(format!(
                "traced pass void: {} events dropped, phases {} ns vs makespan {} ns",
                traced.phases.dropped, traced.phases.phases_total_ns, traced.phases.makespan_ns
            ));
        }
        let values = report::per_layer(&segments, &shape, own_tcp, spans, probes, &traced);
        detail = detail
            .set("spans", spans.len())
            .set("trace_events_dropped", traced.phases.dropped)
            .set("traced_makespan_ns", traced.phases.makespan_ns)
            .set("traced_phases_total_ns", traced.phases.phases_total_ns)
            .set("wire_lanes_per_unit", report::lanes_json(&traced.per_unit));
        write_artefact(
            &artefact_dir().join(format!("trace-{name}.json")),
            &spans.to_json(),
        );
        report::metrics_json(&PER_LAYER, &values)
    } else {
        let setup_s = measure::quantile(&setup_times, 0.25);
        let (values, tail) = report::end_to_end(&segments, &shape, peak_rss_mb(), setup_s);
        detail = detail
            .set("tail_percentile", tail.percentile)
            .set("tail_samples_beyond", tail.beyond)
            .set("makespan_samples", tail.n)
            .set(
                "setup_samples_s",
                Json::Arr(setup_times.iter().map(|&s| Json::from(s)).collect()),
            );
        report::metrics_json(&END_TO_END, &values)
    };

    let failed = failures.len().min(attempted);
    failures.truncate(5);
    detail = detail.set(
        "failures",
        Json::Arr(failures.into_iter().map(Json::from).collect()),
    );
    Ok(RunOutput {
        result: Json::obj()
            .set("correct", failed == 0)
            .set("attempted", attempted)
            .set("failed", failed)
            .set("metrics", metrics),
        detail,
    })
}

/// Run one workload under a watchdog and print its two lines.
fn child_main(name: &str, args: &Args) -> ExitCode {
    let limit = Duration::from_secs_f64(args.seconds) + WATCHDOG_GRACE;
    let (done, finished) = mpsc::channel::<()>();
    let watchdog = std::thread::spawn(move || {
        if finished.recv_timeout(limit) == Err(mpsc::RecvTimeoutError::Timeout) {
            eprintln!("dtask-bench: run stuck for {limit:?}; giving up");
            std::process::exit(3);
        }
    });
    let outcome = run_workload(name, args);
    drop(done);
    let _ = watchdog.join();
    match outcome {
        Ok(out) => {
            println!("{}", out.detail.to_string_compact());
            println!("{}", out.result.to_string_compact());
            if out.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("dtask-bench: {name}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Re-exec this binary for one workload and read its last two lines.
fn spawn_child(name: &str, args: &Args, trace: bool) -> Result<RunOutput, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let result = lines.next().ok_or("child printed nothing")?;
    let detail = lines.next().ok_or("child printed no detail line")?;
    let report = RunOutput {
        detail: Json::parse(detail)?,
        result: Json::parse(result)?,
    };
    if !output.status.success() {
        eprintln!("{name}: child exited with {}", output.status);
    }
    Ok(report)
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn count(result: &Json, key: &str) -> f64 {
    result.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn print_metrics(defs: &[MetricDef], result: &Json) {
    for def in defs {
        match metric_value(result, def.name) {
            Some(v) => println!(
                "  {:<32} {:>16.4} {:<8} ({} is better)",
                def.name, v, def.unit, def.better
            ),
            None => println!("  {:<32} {:>16} {}", def.name, "null", def.unit),
        }
    }
}

/// One pass over every workload, in `order`. Returns the per-workload
/// documents and whether every child was correct.
fn run_set(args: &Args, order: &[&str], trace: bool) -> (Vec<(String, RunOutput)>, bool) {
    let mut all_ok = true;
    let mut reports = Vec::new();
    for &name in order {
        println!(
            "== {name} ({}) ==",
            if trace { "traced pass" } else { "end to end" }
        );
        match spawn_child(name, args, trace) {
            Ok(report) => {
                let (attempted, failed) = (
                    count(&report.result, "attempted"),
                    count(&report.result, "failed"),
                );
                print_metrics(if trace { &PER_LAYER } else { &END_TO_END }, &report.result);
                println!(
                    "  {:<32} {:>16.4} (failed {failed} of {attempted} units)",
                    "fail_share",
                    failed / attempted.max(1.0)
                );
                if !trace {
                    let d = |k: &str| report.detail.get(k).and_then(Json::as_f64).unwrap_or(0.0);
                    println!(
                        "  makespan_tail_ms is p{:.2} of {} samples, {} beyond it",
                        d("tail_percentile"),
                        d("makespan_samples"),
                        d("tail_samples_beyond")
                    );
                }
                all_ok &= report.correct();
                reports.push((name.to_string(), report));
            }
            Err(e) => {
                println!("  FAILED: {e}");
                all_ok = false;
            }
        }
    }
    (reports, all_ok)
}

fn set_json(reports: &[(String, RunOutput)]) -> Json {
    let mut obj = Json::obj();
    for (name, report) in reports {
        obj = obj.set(
            name,
            Json::obj()
                .set("result", report.result.clone())
                .set("detail", report.detail.clone()),
        );
    }
    obj
}

/// The per-frame transport cost the two storms bracket: the gap between the
/// Tcp and the InProc round, per task.
fn print_storm_gap(reports: &[(String, RunOutput)]) {
    let makespan = |name: &str| {
        reports
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, r)| metric_value(&r.result, "makespan_ms"))
    };
    if let (Some(tcp), Some(inproc)) = (makespan("task_storm.tcp"), makespan("task_storm")) {
        println!(
            "derived: dtask.wire_net.us_per_task (task_storm.tcp - task_storm round) = {:.4} us",
            (tcp - inproc) * 1e3 / 513.0
        );
    }
}

fn parent_main(args: &Args) -> ExitCode {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| artefact_dir().join("run.json"));
    let mut doc = Json::obj()
        .set("seed", args.seed)
        .set("seconds", args.seconds)
        .set("smoke", args.smoke);
    let mut ok = true;

    if args.selfcheck {
        let reversed: Vec<&str> = names.iter().rev().copied().collect();
        let (first, ok_a) = run_set(args, &names, false);
        let (second, ok_b) = run_set(args, &reversed, false);
        ok &= ok_a && ok_b;
        println!("== selfcheck: two sets of the same build ==");
        for name in &names {
            let find = |set: &[(String, RunOutput)]| {
                set.iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, r)| r.result.clone())
            };
            let (Some(a), Some(b)) = (find(&first), find(&second)) else {
                ok = false;
                continue;
            };
            for def in &END_TO_END {
                let (Some(va), Some(vb)) = (metric_value(&a, def.name), metric_value(&b, def.name))
                else {
                    ok = false;
                    continue;
                };
                let apart = (vb - va).abs() / va.abs().max(f64::MIN_POSITIVE);
                let within = apart <= def.bound.unwrap_or(0.0);
                println!(
                    "  {name:<20} {:<18} {va:>14.4} {vb:>14.4} {}  {:>6.2}% apart (bound {:.0}%) {}",
                    def.name,
                    def.unit,
                    apart * 100.0,
                    def.bound.unwrap_or(0.0) * 100.0,
                    if within { "ok" } else { "OUTSIDE" }
                );
                ok &= within;
            }
        }
        doc = doc
            .set("first", set_json(&first))
            .set("second", set_json(&second));
    } else {
        let (e2e, ok_e2e) = run_set(args, &names, false);
        ok &= ok_e2e;
        print_storm_gap(&e2e);
        doc = doc.set("end_to_end", set_json(&e2e));
        if args.traced {
            let (layers, ok_layers) = run_set(args, &names, true);
            ok &= ok_layers;
            doc = doc.set("per_layer", set_json(&layers));
        }
    }
    write_artefact(&out, &doc);
    println!(
        "{}",
        if ok {
            "dtask-bench OK"
        } else {
            "dtask-bench FAILED"
        }
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dtask-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        for w in &WORKLOADS {
            println!("{:<20} {}", w.name, w.why);
        }
        return ExitCode::SUCCESS;
    }
    match &args.workload {
        Some(name) => child_main(name, &args),
        None => parent_main(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse_args(&argv(
            "--workload task_storm --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("task_storm"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
    }

    /// The emitted result parses back through `dtask::Json::parse`, has
    /// exactly the contract's keys, and carries every metric `BENCHMARK.json`
    /// names — end to end untraced, per layer traced.
    #[test]
    fn emitted_json_round_trips_with_every_benchmark_metric() {
        let bench = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |section: &str| -> Vec<String> {
            bench
                .get(section)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| match m.get("name") {
                    Some(Json::Str(s)) => s.clone(),
                    other => panic!("metric without a name: {other:?}"),
                })
                .collect()
        };
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let args = Args {
                trace,
                smoke: true,
                ..parse_args(&[]).unwrap()
            };
            let out = run_workload("task_storm", &args).unwrap();
            assert!(out.correct(), "{}", out.detail.to_string_compact());
            let parsed = Json::parse(&out.result.to_string_compact()).unwrap();
            let Json::Obj(fields) = &parsed else {
                panic!("result is not an object")
            };
            let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert!(count(&parsed, "attempted") >= 1.0);
            let Some(Json::Obj(metrics)) = parsed.get("metrics") else {
                panic!("metrics is not an object")
            };
            let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(emitted, names(section), "{section} metric names");
            for name in names(section) {
                assert!(
                    metric_value(&parsed, &name).is_some(),
                    "{name} has no value"
                );
            }
        }
    }

    /// `BENCHMARK.json` and the tables compiled into the binary agree on
    /// names, units, directions, bounds and workloads.
    #[test]
    fn benchmark_json_matches_the_compiled_tables() {
        let bench = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let text = |m: &Json, k: &str| match m.get(k) {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("{k}: {other:?}"),
        };
        for (section, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = bench.get(section).and_then(Json::as_arr).unwrap();
            assert_eq!(listed.len(), defs.len(), "{section}");
            for (m, def) in listed.iter().zip(defs) {
                assert_eq!(text(m, "name"), def.name);
                assert_eq!(text(m, "unit"), def.unit);
                assert_eq!(text(m, "better"), def.better);
                assert_eq!(m.get("bound").and_then(Json::as_f64), def.bound);
            }
        }
        let listed = bench.get("workloads").and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), WORKLOADS.len());
        for (m, w) in listed.iter().zip(&WORKLOADS) {
            assert_eq!(text(m, "name"), w.name);
            assert_eq!(text(m, "why"), w.why);
        }
    }
}
