//! Runs every workload in `--smoke` mode, untraced and traced, from the
//! repository root (where the `BENCHMARK.json` command runs), and checks
//! the result line, the printed metrics and the spans.

use advcomp_serve::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits inside the repository")
        .to_path_buf()
}

fn advbench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_advbench"))
        .current_dir(repo_root())
        .args(args)
        .output()
        .expect("advbench runs")
}

/// Metric names of one `BENCHMARK.json` section.
fn listed(section: &str) -> Vec<String> {
    let bench = std::fs::read(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    Json::parse(&bench)
        .expect("BENCHMARK.json parses")
        .get(section)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("no {section} list"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn smoke(workload: &str, seed: &str, trace: &str) -> (String, Json) {
    let out = advbench(&[
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "1",
        "--trace",
        trace,
        "--smoke",
    ]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = Json::parse(last.as_bytes()).expect("the last line is JSON");
    (stdout, result)
}

/// Checks the result line and that every listed metric is printed as
/// `name value unit n=<samples>` with a finite value; returns the metrics.
fn check_run(workload: &str, seed: &str, trace: &str) -> Json {
    let (stdout, result) = smoke(workload, seed, trace);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    assert_eq!(
        result.get("failed").and_then(Json::as_u64),
        Some(0),
        "{stdout}"
    );
    let want = listed(if trace == "1" {
        "per_layer"
    } else {
        "end_to_end"
    });
    let Some(Json::Obj(metrics)) = result.get("metrics").cloned() else {
        panic!("no metrics object: {stdout}");
    };
    let got: Vec<&String> = metrics.keys().collect();
    let mut sorted_want: Vec<&String> = want.iter().collect();
    sorted_want.sort();
    assert_eq!(
        got, sorted_want,
        "{workload} reports exactly the listed metrics"
    );
    let printed: BTreeMap<&str, Vec<&str>> = stdout
        .lines()
        .filter(|l| !l.starts_with('#') && !l.starts_with('{'))
        .map(|l| {
            let fields: Vec<&str> = l.split(' ').collect();
            (fields[0], fields[1..].to_vec())
        })
        .collect();
    for name in &want {
        let fields = printed
            .get(name.as_str())
            .unwrap_or_else(|| panic!("{name} not printed by {workload}"));
        let value: f64 = fields[0].parse().expect("numeric value");
        assert!(value.is_finite(), "{workload} {name} = {value}");
        assert_eq!(
            Some(fields[1]),
            metrics[name.as_str()].get("unit").and_then(Json::as_str),
            "{name} unit"
        );
        assert!(fields[2].starts_with("n="), "{name} sample count");
    }
    Json::Obj(metrics)
}

/// Every span's parent exists and encloses it, so self times (duration
/// minus child coverage) are never negative.
fn check_spans(workload: &str) {
    let path = repo_root()
        .join("target/advbench")
        .join(format!("{workload}-1-trace-smoke.spans.jsonl"));
    let text = std::fs::read_to_string(&path).expect("spans written");
    let spans: BTreeMap<u64, (Option<u64>, u64, u64)> = text
        .lines()
        .map(|l| {
            let s = Json::parse(l.as_bytes()).expect("span line parses");
            let num = |k: &str| s.get(k).and_then(Json::as_u64).expect(k);
            let parent = s.get("parent").and_then(Json::as_u64);
            assert!(s.get("trace_id").and_then(Json::as_u64).is_some());
            assert!(s.get("name").and_then(Json::as_str).is_some());
            (num("span_id"), (parent, num("start_ns"), num("end_ns")))
        })
        .collect();
    assert!(!spans.is_empty(), "{workload} recorded no spans");
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for (id, &(parent, start, end)) in &spans {
        assert!(end >= start, "span {id} ends before it starts");
        if let Some(p) = parent {
            let &(_, ps, pe) = spans
                .get(&p)
                .unwrap_or_else(|| panic!("span {id} names missing parent {p}"));
            assert!(ps <= start && end <= pe, "span {id} leaks out of {p}");
            *child_ns.entry(p).or_default() += end - start;
        }
    }
    for (p, covered) in child_ns {
        let (_, start, end) = spans[&p];
        assert!(covered <= end - start, "span {p} has negative self time");
    }
}

fn workload(name: &str) {
    check_run(name, "1", "0");
    let layers = check_run(name, "1", "1");
    check_spans(name);
    if name.starts_with("sweep") {
        // Every step of a point is a child span: only the benchmark's own
        // glue between the calls is uncovered.
        let coverage = layers
            .get("trace.coverage_pct")
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .expect("coverage");
        assert!(coverage >= 90.0, "{name}: spans cover {coverage}%");
    }
}

#[test]
fn serve_trickle() {
    workload("serve_trickle");
}

#[test]
fn serve_pipelined() {
    workload("serve_pipelined");
}

#[test]
fn sweep_lenet() {
    workload("sweep_lenet");
}

#[test]
fn sweep_cifar() {
    workload("sweep_cifar");
}

#[test]
fn a_result_agrees_with_itself() {
    // Seed 2: the sweep_lenet test writes seed 1's result concurrently.
    check_run("sweep_lenet", "2", "0");
    let result = "target/advbench/sweep_lenet-2-smoke.json";
    let out = advbench(&["--agree", result, result]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    for name in listed("end_to_end") {
        assert!(
            stdout.contains(&format!("sweep_lenet {name} agree")),
            "{name}: {stdout}"
        );
    }
}
