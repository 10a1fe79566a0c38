//! One bench-record schema and one regression gate.
//!
//! Every measurement bin (`kernel_bench`, `quant_bench`, `graph_bench`,
//! `detect_bench`, `serve_bench`) writes a `BENCH_<bench>.json` of one
//! shape, one record per line:
//!
//! ```text
//! {"bench":"graph","host":"x86_64-linux cores=2 simd=avx2+fma","records":[
//!   {"name":"lenet5.q8.speedup","unit":"x","value":1.4902369506727418,"gate":{"min":1.3}},
//!   {"name":"lenet5.q8.alloc_events_steady","unit":"count","value":0,"gate":{"max":0}}
//! ]}
//! ```
//!
//! A record is one number; the labels of the row it came from are part of
//! its dotted name. An optional free-text `note` follows `host`. Gate
//! bounds are inclusive. A bench attaches a gate only where the gate's
//! hardware condition holds on the measuring host (AVX2, or ≥ 8 cores),
//! so [`Report::check`], the one comparator, knows nothing about hosts:
//! it fails exactly the records whose value lies outside their gate.
//!
//! Files are written and read with the runtime codec
//! [`advcomp_wire::json`]. Values print as the shortest decimal that
//! round-trips, so a file read back holds the same f64 bits.

use advcomp_wire::json::{Escaped, Json, JsonObj};
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::time::Instant;

/// Inclusive bounds on a record's value.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Gate {
    /// Lowest passing value.
    pub min: Option<f64>,
    /// Highest passing value.
    pub max: Option<f64>,
}

impl Gate {
    /// Whether `value` passes (NaN never does).
    fn admits(&self, value: f64) -> bool {
        self.min.is_none_or(|m| value >= m) && self.max.is_none_or(|m| value <= m)
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.min, self.max) {
            (Some(lo), Some(hi)) => write!(f, "min {lo}, max {hi}"),
            (Some(lo), None) => write!(f, "min {lo}"),
            (None, Some(hi)) => write!(f, "max {hi}"),
            (None, None) => write!(f, "none"),
        }
    }
}

/// One measured number.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Dotted name, unique within its file.
    pub name: String,
    /// Unit of `value` (`ns`, `x`, `count`, `fraction`, ...).
    pub unit: String,
    /// The measurement.
    pub value: f64,
    /// The regression gate, if this host arms one.
    pub gate: Option<Gate>,
}

impl Record {
    /// Gates the record at `value >= bound`.
    pub fn min(&mut self, bound: f64) -> &mut Self {
        self.gate.get_or_insert_with(Gate::default).min = Some(bound);
        self
    }

    /// Gates the record at `value <= bound`.
    pub fn max(&mut self, bound: f64) -> &mut Self {
        self.gate.get_or_insert_with(Gate::default).max = Some(bound);
        self
    }

    fn from_json(doc: &Json) -> Result<Self, String> {
        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .ok_or("record without a string name")?;
        let num = |json: Option<&Json>, what: &str| {
            json.map(|v| {
                v.as_f64()
                    .ok_or_else(|| format!("record {name}: {what} is not a number"))
            })
            .transpose()
        };
        let gate = match doc.get("gate") {
            None => None,
            Some(g) => Some(Gate {
                min: num(g.get("min"), "gate min")?,
                max: num(g.get("max"), "gate max")?,
            }),
        };
        if gate.is_some_and(|g| g.min.is_none() && g.max.is_none()) {
            return Err(format!("record {name}: gate has neither min nor max"));
        }
        Ok(Record {
            name: name.to_string(),
            unit: doc
                .get("unit")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("record {name}: unit is not a string"))?
                .to_string(),
            value: num(doc.get("value"), "value")?
                .ok_or_else(|| format!("record {name}: no value"))?,
            gate,
        })
    }
}

/// One bench file: which bench, on which host, and its records.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Bench name; the file is `BENCH_<bench>.json`.
    pub bench: String,
    /// The measuring host: target, core count and SIMD support.
    pub host: String,
    /// Free text that is not a number.
    pub note: Option<String>,
    /// The measurements, in the order the bench took them.
    pub records: Vec<Record>,
}

impl Report {
    /// An empty report for this host.
    pub fn new(bench: &str) -> Self {
        Report {
            bench: bench.to_string(),
            host: host(),
            note: None,
            records: Vec::new(),
        }
    }

    /// Appends a record and returns it, so the caller can gate it.
    pub fn push(&mut self, name: impl Into<String>, unit: &str, value: f64) -> &mut Record {
        self.records.push(Record {
            name: name.into(),
            unit: unit.to_string(),
            value,
            gate: None,
        });
        self.records.last_mut().expect("just pushed")
    }

    /// The value of the record called `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.records
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.value)
    }

    /// Parses a bench file.
    ///
    /// # Errors
    ///
    /// Malformed JSON, a missing field, a non-numeric value or gate bound,
    /// or two records with the same name.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text.as_bytes())?;
        let text_field = |key: &str| doc.get(key).and_then(Json::as_str).map(str::to_string);
        let records = doc
            .get("records")
            .and_then(Json::as_array)
            .ok_or("no records array")?
            .iter()
            .map(Record::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let mut names = HashSet::new();
        if let Some(dup) = records.iter().find(|r| !names.insert(r.name.as_str())) {
            return Err(format!("record {} appears twice", dup.name));
        }
        Ok(Report {
            bench: text_field("bench").ok_or("no bench name")?,
            host: text_field("host").ok_or("no host")?,
            note: text_field("note"),
            records,
        })
    }

    /// Reads and parses the bench file at `path`.
    ///
    /// # Errors
    ///
    /// An unreadable file, or any [`Report::parse`] error.
    pub fn read(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Report::parse(&text).map_err(|e| format!("{path}: {e}"))
    }

    /// The one comparator: prints one line per gated record.
    ///
    /// # Errors
    ///
    /// Lists every record outside its gate; `main` returning this exits 1.
    pub fn check(&self) -> Result<(), String> {
        let mut failed = Vec::new();
        for r in &self.records {
            let Some(gate) = r.gate else { continue };
            let verdict = if gate.admits(r.value) { "ok" } else { "FAIL" };
            let line = format!("{} = {} {} (gate {gate})", r.name, r.value, r.unit);
            println!("gate {verdict:<4} {line}");
            if verdict == "FAIL" {
                failed.push(line);
            }
        }
        if failed.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "{}: {} gate(s) failed: {}",
                self.bench,
                failed.len(),
                failed.join("; ")
            ))
        }
    }

    /// Writes the report to `path`, then runs [`Report::check`] on what
    /// [`Report::read`] gets back from the file.
    ///
    /// # Errors
    ///
    /// A write or read-back failure, or every failed gate.
    pub fn finish(&self, path: &str) -> Result<(), String> {
        std::fs::write(path, self.to_string()).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
        Report::read(path)?.check()
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{{\"bench\":{},\"host\":{}",
            Escaped(&self.bench),
            Escaped(&self.host)
        )?;
        if let Some(note) = &self.note {
            write!(f, ",\"note\":{}", Escaped(note))?;
        }
        write!(f, ",\"records\":[")?;
        for (i, r) in self.records.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(
                f,
                "{sep}\n  {{\"name\":{},\"unit\":{},\"value\":{}",
                Escaped(&r.name),
                Escaped(&r.unit),
                Json::Num(r.value)
            )?;
            if let Some(gate) = r.gate {
                let mut bounds = JsonObj::new();
                for (key, bound) in [("min", gate.min), ("max", gate.max)] {
                    if let Some(b) = bound {
                        bounds = bounds.set(key, Json::Num(b));
                    }
                }
                write!(f, ",\"gate\":{}", bounds.build())?;
            }
            write!(f, "}}")?;
        }
        writeln!(f, "\n]}}")
    }
}

/// Logical cores of this host.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// The measuring host: target, core count, and whether the AVX2+FMA
/// kernels run.
fn host() -> String {
    let simd = if advcomp_tensor::simd::simd_available() {
        "avx2+fma"
    } else {
        "none"
    };
    format!(
        "{}-{} cores={} simd={simd}",
        std::env::consts::ARCH,
        std::env::consts::OS,
        cores()
    )
}

/// `before / after` (a speedup or size ratio), counting a zero `after`
/// as 1.
pub fn speedup(before: u64, after: u64) -> f64 {
    before as f64 / after.max(1) as f64
}

/// Median wall time in ns of `iters` timed calls to `f`, after
/// `max(3, iters / 10)` untimed calls that warm caches and start the
/// kernel pool's workers. `iters` must be at least 1 ([`Flags`] refuses
/// `--iters 0`).
pub fn median_ns(iters: usize, mut f: impl FnMut()) -> u64 {
    median_ns_pair(iters, &mut f, || {}).0
}

/// Median wall times in ns of `iters` timed calls to each of `a` and `b`,
/// timed in alternating iterations (`a` first), after the warm-up of
/// [`median_ns`] for each. A burst of host noise then lands on both sides
/// instead of on one block of calls, so a ratio of the two medians does
/// not swing with it.
pub fn median_ns_pair(iters: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (u64, u64) {
    assert!(iters > 0, "median_ns needs at least one timed call");
    for _ in 0..iters.div_ceil(10).max(3) {
        a();
        b();
    }
    let time = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_nanos() as u64
    };
    let (mut sa, mut sb): (Vec<u64>, Vec<u64>) =
        (0..iters).map(|_| (time(&mut a), time(&mut b))).unzip();
    sa.sort_unstable();
    sb.sort_unstable();
    (sa[iters / 2], sb[iters / 2])
}

/// A bench bin's command line: `--flag value` pairs from a fixed set.
#[derive(Debug)]
pub struct Flags(BTreeMap<&'static str, String>);

impl Flags {
    /// Parses `args` against `accepted`, the bin's flags with their
    /// defaults.
    ///
    /// # Errors
    ///
    /// An unknown flag, a flag without a value, or an `--iters` that is
    /// not a count of at least 1.
    pub fn parse(
        args: impl IntoIterator<Item = String>,
        accepted: &[(&'static str, &str)],
    ) -> Result<Self, String> {
        let mut values: BTreeMap<_, _> = accepted
            .iter()
            .map(|&(flag, default)| (flag, default.to_string()))
            .collect();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let slot = values
                .get_mut(flag.as_str())
                .ok_or_else(|| format!("unknown flag '{flag}'"))?;
            *slot = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        }
        let flags = Flags(values);
        if flags.0.contains_key("--iters") && flags.num::<usize>("--iters")? == 0 {
            return Err("--iters must be at least 1".into());
        }
        Ok(flags)
    }

    /// The value of `flag`, which must be one of the accepted flags.
    pub fn get(&self, flag: &str) -> &str {
        &self.0[flag]
    }

    /// The value of `flag` parsed as a number.
    ///
    /// # Errors
    ///
    /// The value does not parse as `T`.
    pub fn num<T: std::str::FromStr>(&self, flag: &str) -> Result<T, String> {
        let value = self.get(flag);
        value
            .parse()
            .map_err(|_| format!("{flag} {value}: not a number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::process::{ExitCode, Termination};

    fn report(records: &[(&str, f64, Option<Gate>)]) -> Report {
        Report {
            bench: "test".into(),
            host: "test-host".into(),
            note: None,
            records: records
                .iter()
                .map(|&(name, value, gate)| Record {
                    name: name.into(),
                    unit: "x".into(),
                    value,
                    gate,
                })
                .collect(),
        }
    }

    const WINDOW: Gate = Gate {
        min: Some(1.0),
        max: Some(2.0),
    };

    fn next_up(v: f64) -> f64 {
        f64::from_bits(v.to_bits() + 1)
    }

    fn next_down(v: f64) -> f64 {
        f64::from_bits(v.to_bits() - 1)
    }

    #[test]
    fn values_on_the_bounds_pass() {
        let r = report(&[("at_min", 1.0, Some(WINDOW)), ("at_max", 2.0, Some(WINDOW))]);
        assert_eq!(r.check(), Ok(()));
        assert_eq!(r.check().report(), ExitCode::SUCCESS);
    }

    #[test]
    fn one_step_past_a_bound_fails() {
        for value in [next_down(1.0), next_up(2.0)] {
            let r = report(&[("past", value, Some(WINDOW))]);
            assert!(r.check().is_err(), "{value} passed");
        }
        let zero = Gate {
            min: None,
            max: Some(0.0),
        };
        assert!(report(&[("allocs", 1.0, Some(zero))]).check().is_err());
        assert!(report(&[("allocs", 0.0, Some(zero))]).check().is_ok());
    }

    #[test]
    fn every_failure_is_listed_and_exits_nonzero() {
        let r = report(&[
            ("low", 0.5, Some(WINDOW)),
            ("fine", 1.5, Some(WINDOW)),
            ("high", 3.0, Some(WINDOW)),
            ("nan", f64::NAN, Some(WINDOW)),
        ]);
        let err = r.check().unwrap_err();
        assert!(err.contains("3 gate(s) failed"), "{err}");
        for name in ["low", "high", "nan"] {
            assert!(err.contains(&format!("{name} = ")), "{name} missing: {err}");
        }
        assert!(!err.contains("fine"), "{err}");
        assert_eq!(r.check().report(), ExitCode::FAILURE);
    }

    #[test]
    fn ungated_records_never_fail() {
        let r = report(&[
            ("nan", f64::NAN, None),
            ("neg", -1e300, None),
            ("inf", f64::INFINITY, None),
        ]);
        assert_eq!(r.check(), Ok(()));
    }

    #[test]
    fn file_round_trips_bit_exactly() {
        let mut r = report(&[
            ("third", 1.0 / 3.0, None),
            ("sum", 0.1 + 0.2, None),
            ("tiny", 1e-300, None),
            ("ns", 1_874_723.0, None),
            ("big", 2f64.powi(60), None),
            ("quote\"d", 5e-7, None),
        ]);
        r.note = Some("line\nbreak".into());
        r.push("gated", "x", 1.5).min(1.3).max(2.0);
        r.push("floor", "count", 0.0).max(0.0);
        let text = r.to_string();
        let back = Report::parse(&text).unwrap();
        assert_eq!(back, r);
        for (a, b) in back.records.iter().zip(&r.records) {
            assert_eq!(a.value.to_bits(), b.value.to_bits(), "{}", a.name);
        }
        assert_eq!(back.to_string(), text);
    }

    #[test]
    fn parse_refuses_malformed_files() {
        let dup = report(&[("a", 1.0, None), ("a", 2.0, None)]).to_string();
        assert!(Report::parse(&dup).unwrap_err().contains("twice"));
        let inf = report(&[("a", f64::INFINITY, None)]).to_string();
        assert!(Report::parse(&inf).is_err(), "non-finite value read back");
        for gate in [r#"{"min":"1"}"#, "{}", "5"] {
            let text = format!(
                r#"{{"bench":"b","host":"h","records":[{{"name":"a","unit":"x","value":1,"gate":{gate}}}]}}"#
            );
            assert!(Report::parse(&text).is_err(), "gate {gate} accepted");
        }
        assert!(Report::parse(r#"{"bench":"b","records":[]}"#).is_err());
    }

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    const KERNEL: &[(&str, &str)] = &[("--out", "BENCH_kernels.json"), ("--iters", "200")];
    const SERVE: &[(&str, &str)] = &[
        ("--out", "BENCH_serve.json"),
        ("--workers", "1,4,8"),
        ("--duration-ms", "1000"),
    ];

    #[test]
    fn flags_take_defaults_and_overrides() {
        let flags = Flags::parse(args(&[]), KERNEL).unwrap();
        assert_eq!(flags.get("--out"), "BENCH_kernels.json");
        assert_eq!(flags.num::<usize>("--iters"), Ok(200));
        let flags = Flags::parse(args(&["--iters", "25", "--out", "/tmp/k.json"]), KERNEL).unwrap();
        assert_eq!(flags.get("--out"), "/tmp/k.json");
        assert_eq!(flags.num::<usize>("--iters"), Ok(25));
    }

    #[test]
    fn zero_iters_is_an_error() {
        let err = Flags::parse(args(&["--iters", "0"]), KERNEL).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        assert!(Flags::parse(args(&["--iters", "many"]), KERNEL).is_err());
    }

    #[test]
    fn trailing_out_without_a_value_is_an_error() {
        let err = Flags::parse(args(&["--iters", "5", "--out"]), KERNEL).unwrap_err();
        assert!(err.contains("--out needs a value"), "{err}");
    }

    #[test]
    fn unknown_flag_is_an_error() {
        for bad in [&["--quick"][..], &["--check-serve"], &["--iters", "5"]] {
            let err = Flags::parse(args(bad), SERVE).unwrap_err();
            assert!(err.contains("unknown flag"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn missing_value_is_an_error() {
        let err = Flags::parse(args(&["--workers"]), SERVE).unwrap_err();
        assert!(err.contains("--workers needs a value"), "{err}");
        let flags = Flags::parse(args(&["--duration-ms", "soon"]), SERVE).unwrap();
        assert!(flags.num::<u64>("--duration-ms").is_err());
    }
}
