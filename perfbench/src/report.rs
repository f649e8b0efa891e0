//! Metric catalogue, run outcome, and the result and fingerprint lines.

use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
    ("loc_error_m_mean", "m"),
    ("loc_error_m_final", "m"),
];

/// The encoder's layers in `Sequential::layers()` order, by `Layer::name`.
/// The traced run checks the deployed model against this list, so an
/// architecture change shows up as a catalogue mismatch, not as silently
/// renamed metrics.
pub const ENCODER_LAYERS: [&str; 12] = [
    "gaussian_noise",
    "conv2d",
    "relu",
    "dropout",
    "conv2d",
    "relu",
    "dropout",
    "flatten",
    "dense",
    "relu",
    "dense",
    "l2_normalize",
];

/// The layers with a kernel worth comparing against the matmul peak.
pub fn is_kernel_layer(name: &str) -> bool {
    matches!(name, "conv2d" | "dense")
}

/// Per-layer metric name of encoder layer `idx`, e.g. `01_conv2d`.
pub fn layer_key(idx: usize, name: &str) -> String {
    format!("{idx:02}_{name}")
}

/// Stage names of the `stone-obs` span ring, in pipeline order.
pub const STAGES: [&str; 5] = ["queue_wait", "collect", "snapshot", "infer", "write_back"];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| out.push((name, unit));
    add("dataset.suite_gen_s".into(), "s");
    add("core.fit_s".into(), "s");
    add("serve.publish_ms".into(), "ms");
    for b in ["b1", "b64"] {
        add(format!("core.preprocess_us.{b}"), "us");
    }
    add("core.embed_us.b1".into(), "us");
    add("core.embed_us_per_scan.b64".into(), "us");
    add("core.knn_us.b1".into(), "us");
    add("core.knn_us_per_scan.b64".into(), "us");
    add("core.embed_us.b1.threads1".into(), "us");
    for b in ["b1", "b64"] {
        for (i, name) in ENCODER_LAYERS.iter().enumerate() {
            add(format!("nn.{}_us.{b}", layer_key(i, name)), "us");
        }
    }
    for (i, name) in ENCODER_LAYERS.iter().enumerate().filter(|(_, n)| is_kernel_layer(n)) {
        add(format!("tensor.{}_gflops.b64", layer_key(i, name)), "GFLOP/s");
        add(format!("tensor.{}_gbps.b64", layer_key(i, name)), "GB/s");
    }
    add("tensor.matmul_peak_gflops".into(), "GFLOP/s");
    add("par.region_us".into(), "us");
    add("serve.overhead_us".into(), "us");
    add("net.overhead_us".into(), "us");
    for stage in STAGES {
        for stat in ["mean", "tail_mean"] {
            add(format!("serve.stage.{stage}_us.{stat}"), "us");
        }
    }
    add("serve.mean_batch".into(), "count");
    add("serve.shed_ratio".into(), "ratio");
    add("net.frames_decoded".into(), "count");
    add("net.malformed".into(), "count");
    add("loadgen.throughput_per_s".into(), "1/s");
    add("loadgen.latency_tail_ms".into(), "ms");
    add("loadgen.lag_ms.p99".into(), "ms");
    add("obs.tracing_overhead_pct".into(), "%");
    out
}

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogue name.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Catalogue unit.
    pub unit: &'static str,
}

/// What one workload run attempted, what failed, what it measured, and
/// every correctness check that did not hold.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that failed (including answers past the latency limit).
    pub failed: u64,
    /// Broken checks, in the order found.
    pub failures: Vec<String>,
    /// Measured values.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Records a broken check unless `ok` holds.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Records a measured value.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name: name.into(), value, unit });
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Keeps exactly the catalogue's metrics, in catalogue order: a missing,
    /// extra, non-finite or mis-unit metric is a broken check.
    pub fn conform(&mut self, catalogue: &[(String, &'static str)]) {
        let mut kept = Vec::with_capacity(catalogue.len());
        for (name, unit) in catalogue {
            match self.metrics.iter().find(|m| &m.name == name) {
                Some(m) if m.unit == *unit && m.value.is_finite() => kept.push(m.clone()),
                Some(m) => self.failures.push(format!(
                    "metric {name} = {} {} (catalogue unit {unit}, must be finite)",
                    m.value, m.unit
                )),
                None => self.failures.push(format!("metric {name} was not measured")),
            }
        }
        for m in &self.metrics {
            if !catalogue.iter().any(|(name, _)| *name == m.name) {
                self.failures.push(format!("metric {} is not in the catalogue", m.name));
            }
        }
        self.metrics = kept;
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Cumulative `(steal, total)` CPU ticks of this machine, from the first
/// line of `/proc/stat`; `None` where it is unavailable.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).map_while(|f| f.parse().ok()).collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// The commit of the working tree, read from `.git` in the current
/// directory; `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Some(commit) = read(&format!(".git/{reference}")) {
        return commit;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| l.strip_suffix(reference).map(|c| c.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The host and run fingerprint line every run prints before its result.
pub fn fingerprint(workload: &str, seed: u64, seconds: u64, trace: bool) -> String {
    #[cfg(target_arch = "x86_64")]
    let (avx2, fma) = (is_x86_feature_detected!("avx2"), is_x86_feature_detected!("fma"));
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, fma) = (false, false);
    let env = |k: &str| std::env::var(k).map_or_else(|_| "null".into(), |v| json_str(&v));
    format!(
        "{{\"fingerprint\": {{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \
         \"trace\": {trace}, \"nproc\": {}, \"avx2\": {avx2}, \"fma\": {fma}, \
         \"max_threads\": {}, \"simd_kernels\": {}, \"STONE_THREADS\": {}, \"STONE_FMA\": {}, \
         \"STONE_NO_SIMD\": {}, \"git_commit\": {}}}}}",
        json_str(workload),
        std::thread::available_parallelism().map_or(1, usize::from),
        stone_par::max_threads(),
        stone_tensor::simd_available(),
        env("STONE_THREADS"),
        env("STONE_FMA"),
        env("STONE_NO_SIMD"),
        json_str(&git_commit()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A JSON value: just enough of the grammar to read `BENCHMARK.json`.
    #[derive(Debug, Clone, PartialEq)]
    enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }

        fn eat(&mut self, c: u8) {
            self.ws();
            assert_eq!(self.s.get(self.i), Some(&c), "expected {:?} at byte {}", c as char, self.i);
            self.i += 1;
        }

        fn value(&mut self) -> Json {
            self.ws();
            match self.s[self.i] {
                b'{' => {
                    self.i += 1;
                    let mut fields = Vec::new();
                    self.ws();
                    if self.s[self.i] == b'}' {
                        self.i += 1;
                        return Json::Obj(fields);
                    }
                    loop {
                        self.ws();
                        let Json::Str(k) = self.value() else { panic!("object key") };
                        self.eat(b':');
                        fields.push((k, self.value()));
                        self.ws();
                        self.i += 1;
                        match self.s[self.i - 1] {
                            b',' => {}
                            b'}' => return Json::Obj(fields),
                            c => panic!("unexpected {:?}", c as char),
                        }
                    }
                }
                b'[' => {
                    self.i += 1;
                    let mut items = Vec::new();
                    self.ws();
                    if self.s[self.i] == b']' {
                        self.i += 1;
                        return Json::Arr(items);
                    }
                    loop {
                        items.push(self.value());
                        self.ws();
                        self.i += 1;
                        match self.s[self.i - 1] {
                            b',' => {}
                            b']' => return Json::Arr(items),
                            c => panic!("unexpected {:?}", c as char),
                        }
                    }
                }
                b'"' => {
                    self.i += 1;
                    let start = self.i;
                    while self.s[self.i] != b'"' {
                        assert_ne!(self.s[self.i], b'\\', "escapes are not used in BENCHMARK.json");
                        self.i += 1;
                    }
                    self.i += 1;
                    Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
                }
                b't' | b'f' | b'n' => {
                    for (word, v) in [
                        ("true", Json::Bool(true)),
                        ("false", Json::Bool(false)),
                        ("null", Json::Null),
                    ] {
                        if self.s[self.i..].starts_with(word.as_bytes()) {
                            self.i += word.len();
                            return v;
                        }
                    }
                    panic!("bad literal at byte {}", self.i)
                }
                _ => {
                    let start = self.i;
                    while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                        self.i += 1;
                    }
                    Json::Num(std::str::from_utf8(&self.s[start..self.i]).unwrap().parse().unwrap())
                }
            }
        }
    }

    fn parse(text: &str) -> Json {
        let mut p = Parser { s: text.as_bytes(), i: 0 };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, text.len(), "trailing bytes");
        v
    }

    fn obj(v: &Json) -> BTreeMap<&str, &Json> {
        let Json::Obj(fields) = v else { panic!("expected an object, got {v:?}") };
        let map: BTreeMap<&str, &Json> = fields.iter().map(|(k, v)| (k.as_str(), v)).collect();
        assert_eq!(map.len(), fields.len(), "duplicate keys");
        map
    }

    fn arr(v: &Json) -> &[Json] {
        let Json::Arr(items) = v else { panic!("expected an array, got {v:?}") };
        items
    }

    fn string(v: &Json) -> &str {
        let Json::Str(s) = v else { panic!("expected a string, got {v:?}") };
        s
    }

    fn is_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
    }

    /// Checks one metric list's shape and returns its `(name, unit)` pairs.
    fn metric_list(v: &Json, keys: &[&str]) -> Vec<(String, String)> {
        arr(v)
            .iter()
            .map(|m| {
                let m = obj(m);
                assert_eq!(m.keys().copied().collect::<Vec<_>>(), keys, "metric keys");
                let name = string(m["name"]).to_string();
                let unit = string(m["unit"]).to_string();
                assert!(is_name(&name), "bad metric name {name:?}");
                assert!(is_unit(&unit), "bad unit {unit:?} of {name}");
                let better = string(m["better"]);
                assert!(better == "lower" || better == "higher", "{name}: better = {better}");
                (name, unit)
            })
            .collect()
    }

    #[test]
    fn benchmark_json_follows_the_metric_grammar() {
        let root = benchmark_json();
        let top = obj(&root);
        assert_eq!(
            top.keys().copied().collect::<Vec<_>>(),
            ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]
        );
        let command = arr(top["command"]);
        assert!(!command.is_empty() && command.len() <= 32);
        assert!(command.iter().all(|c| string(c).len() <= 200 && !string(c).starts_with('/')));
        let paths = arr(top["paths"]);
        assert!((1..=16).contains(&paths.len()));
        for p in paths {
            let p = string(p);
            assert!(p.len() <= 200 && !p.contains("..") && !p.starts_with('/'));
            assert!(p.chars().all(|c| c.is_ascii_alphanumeric() || "_.-/".contains(c)));
        }
        let Json::Num(secs) = top["run_seconds"] else { panic!("run_seconds") };
        assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(secs));

        let workloads = arr(top["workloads"]);
        assert!((2..=8).contains(&workloads.len()));
        let mut names: Vec<String> = Vec::new();
        for w in workloads {
            let w = obj(w);
            assert_eq!(w.keys().copied().collect::<Vec<_>>(), ["name", "why"]);
            let why = string(w["why"]);
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
            names.push(string(w["name"]).to_string());
        }
        assert_eq!(names, crate::WORKLOADS[..crate::GATED_WORKLOADS], "the gated workloads");

        let e2e = metric_list(top["end_to_end"], &["better", "bound", "name", "unit"]);
        for m in arr(top["end_to_end"]) {
            let m = obj(m);
            let Json::Num(bound) = m["bound"] else { panic!("bound") };
            assert!(*bound > 0.0 && *bound <= 0.25, "bound {bound}");
        }
        let setup = arr(top["end_to_end"]).iter().map(obj).find(|m| string(m["name"]) == "setup_s");
        let setup = setup.expect("setup_s is an end-to-end metric");
        assert_eq!((string(setup["unit"]), string(setup["better"])), ("s", "lower"));
        let layers = metric_list(top["per_layer"], &["better", "name", "unit"]);
        assert!((1..=16).contains(&e2e.len()) && (1..=128).contains(&layers.len()));

        names.extend(e2e.iter().chain(&layers).map(|(n, _)| n.clone()));
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "names are used once");

        // The file and the code agree, name by name and unit by unit.
        let code_e2e: Vec<(String, String)> =
            END_TO_END.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(e2e, code_e2e);
        let code_layers: Vec<(String, String)> =
            per_layer().into_iter().map(|(n, u)| (n, u.to_string())).collect();
        assert_eq!(layers, code_layers);
        assert!(
            std::fs::metadata(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .unwrap()
                .len()
                <= 64 * 1024
        );
    }

    #[test]
    fn grammar_rejects_bad_names() {
        assert!(is_name("serve.stage.queue_wait_us.p99"));
        assert!(!is_name("_leading"));
        assert!(!is_name("has space"));
        assert!(!is_name(&"x".repeat(65)));
        assert!(is_unit("GFLOP/s") && is_unit("%") && !is_unit("µs"));
    }

    #[test]
    fn conform_keeps_catalogue_order_and_flags_gaps() {
        let cat: Vec<(String, &str)> = vec![("a".into(), "s"), ("b".into(), "ms")];
        let mut o = Outcome::default();
        o.metric("b", 2.0, "ms");
        o.metric("a", 1.5, "s");
        o.conform(&cat);
        assert!(o.correct());
        assert_eq!(o.metrics.iter().map(|m| m.name.as_str()).collect::<Vec<_>>(), ["a", "b"]);
        assert_eq!(
            o.json_line(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"a\": \
             {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 2, \"unit\": \"ms\"}}}"
        );
        let mut o = Outcome::default();
        o.metric("a", f64::NAN, "s");
        o.metric("c", 1.0, "s");
        o.conform(&cat);
        assert_eq!(o.failures.len(), 3, "{:?}", o.failures);
    }
}
