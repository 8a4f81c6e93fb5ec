//! `perfbench` — the end-to-end and per-layer benchmark of bestk.
//!
//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//! sets the workload up several times (inputs from the seed, the served
//! snapshot, `bestk serve --stdin` started and loaded), then for
//! `--seconds` alternates blocks of a closed-loop read/write session
//! against the server with cold analysis passes over the workload's input,
//! and checks every answer. With `--trace 0` it prints
//! the end-to-end metrics; with `--trace 1` it adds spans around each
//! layer's public calls and prints the per-layer metrics. The last line of
//! standard output is the result object; the line before it records the
//! host and the inputs. See `perfbench/README.md`.

#![forbid(unsafe_code)]

mod analysis;
mod inputs;
mod report;
mod serving;
mod stats;
mod sysinfo;
mod trace;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use bestk_exec::ExecPolicy;

use inputs::{Mix, SetupFiles, Workload, DATASET, MIN_CYCLES};
use report::{quote, Measure, Outcome};
use serving::Server;

/// Set-ups per run, at least; `setup_s` is their median.
const MIN_SETUPS: usize = 3;
/// Set-ups per run, at most.
const MAX_SETUPS: usize = 9;
/// Set-ups continue past [`MIN_SETUPS`] until they have taken this long.
const SETUP_NS: u64 = 3_000_000_000;

/// Parsed command line.
struct Options {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    bestk: PathBuf,
    tmp: PathBuf,
    rustc: String,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut o = Options {
            workload: String::new(),
            seed: 0,
            seconds: 0,
            trace: false,
            bestk: PathBuf::from("target/release/bestk"),
            tmp: PathBuf::from(".bench_build/perfbench"),
            rustc: "unknown".into(),
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let num = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a number: {value:?}"))
            };
            match flag.as_str() {
                "--workload" => o.workload = value.clone(),
                "--seed" => o.seed = num()?,
                "--seconds" => o.seconds = num()?,
                "--trace" => {
                    o.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    }
                }
                "--bestk" => o.bestk = PathBuf::from(value),
                "--tmp" => o.tmp = PathBuf::from(value),
                "--rustc" => o.rustc = value.clone(),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if o.workload.is_empty() || o.seconds == 0 {
            return Err(
                "usage: perfbench --workload <analyze_text|serve_rw|analyze_deep|all> \
                        --seed N --seconds S --trace 0|1"
                    .into(),
            );
        }
        Ok(o)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("make-inputs") => make_inputs_cmd(&args[1..]),
        Some("peak-pass") => peak_pass_cmd(&args[1..]),
        _ => Options::parse(&args).and_then(|o| bench(&o)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `perfbench make-inputs <workload> <seed> <dir>`: the set-up's input
/// generation, run as a child so its memory never counts toward the
/// analysis stage's peak.
fn make_inputs_cmd(args: &[String]) -> Result<(), String> {
    let [w, seed, dir] = args else {
        return Err("usage: perfbench make-inputs <workload> <seed> <dir>".into());
    };
    let seed = seed.parse().map_err(|_| format!("bad seed {seed:?}"))?;
    inputs::make_inputs(Workload::by_name(w)?, seed, Path::new(dir))
}

/// `perfbench peak-pass <workload> <input>`: one analysis pass in a
/// process of its own; prints the process's peak resident set in KiB.
fn peak_pass_cmd(args: &[String]) -> Result<(), String> {
    let [w, input] = args else {
        return Err("usage: perfbench peak-pass <workload> <input>".into());
    };
    let kib = analysis::peak_pass_kib(Workload::by_name(w)?, Path::new(input))?;
    println!("{kib}");
    Ok(())
}

/// Runs `peak-pass` as a child and returns its peak resident set, KiB.
fn peak_pass_in_child(w: Workload, input: &Path) -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .arg("peak-pass")
        .arg(w.name())
        .arg(input)
        .output()
        .map_err(|e| format!("peak-pass: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "peak-pass failed: {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.trim()
        .parse()
        .map_err(|_| format!("peak-pass printed {text:?}"))
}

fn bench(o: &Options) -> Result<(), String> {
    if bestk_faults::is_enabled() || std::env::var_os(bestk_faults::ENV_VAR).is_some() {
        return Err(format!(
            "fault injection must be off (unset {})",
            bestk_faults::ENV_VAR
        ));
    }
    if !o.bestk.is_file() {
        return Err(format!("no bestk binary at {}", o.bestk.display()));
    }
    if o.workload == "all" {
        for w in Workload::ALL {
            run_workload(o, w)?;
        }
        return Ok(());
    }
    run_workload(o, Workload::by_name(&o.workload)?)
}

/// Sets up once in `dir`: input files made by a child process, then the
/// server started and the snapshot loaded. Returns the server and the
/// wall time.
fn setup_once(o: &Options, w: Workload, dir: &Path) -> Result<(Server, u64), String> {
    let t0 = bestk_obs::now_nanos();
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let status = Command::new(exe)
        .arg("make-inputs")
        .arg(w.name())
        .arg(o.seed.to_string())
        .arg(dir)
        .status()
        .map_err(|e| format!("make-inputs: {e}"))?;
    if !status.success() {
        return Err(format!("make-inputs failed: {status}"));
    }
    let mut server = Server::start(&o.bestk)?;
    let snapshot = SetupFiles::new(w, dir).snapshot;
    let reply = server.request(&format!("load {DATASET} {}", snapshot.display()))?;
    if !reply.starts_with("ok\tloaded") {
        return Err(format!("load failed: {reply}"));
    }
    Ok((server, bestk_obs::now_nanos() - t0))
}

fn run_workload(o: &Options, w: Workload) -> Result<(), String> {
    let root = o
        .tmp
        .join(format!("{}-{}-{}", w.name(), o.seed, std::process::id()));
    if root.exists() {
        std::fs::remove_dir_all(&root).map_err(|e| format!("clear {}: {e}", root.display()))?;
    }
    std::fs::create_dir_all(&root).map_err(|e| format!("create {}: {e}", root.display()))?;
    let result = measure(o, w, &root);
    let cleaned = std::fs::remove_dir_all(&root);
    let outcome = result?;
    cleaned.map_err(|e| format!("remove {}: {e}", root.display()))?;
    println!("{}", outcome.to_json()?);
    Ok(())
}

fn secs_to_ns(s: u64) -> u64 {
    s.saturating_mul(1_000_000_000)
}

fn measure(o: &Options, w: Workload, root: &Path) -> Result<Outcome, String> {
    let policy = ExecPolicy::auto();
    let mut setup_ns: Vec<u64> = Vec::with_capacity(MAX_SETUPS);
    let (mut server, files) = loop {
        let dir = root.join(format!("setup{}", setup_ns.len()));
        let (server, ns) = setup_once(o, w, &dir)?;
        setup_ns.push(ns);
        let enough = setup_ns.len() >= MIN_SETUPS && setup_ns.iter().sum::<u64>() >= SETUP_NS;
        if enough || setup_ns.len() == MAX_SETUPS {
            break (server, SetupFiles::new(w, &dir));
        }
        server.quit()?;
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    };
    let snapshot_bytes = file_len(&files.snapshot)?;
    // The in-process replay needs the snapshot as the server first saw it;
    // compaction rewrites the served copy.
    let pristine = root.join("inproc.bestk");
    if o.trace {
        std::fs::copy(&files.snapshot, &pristine).map_err(|e| format!("copy snapshot: {e}"))?;
    }
    let g0 = inputs::serve_graph(o.seed);
    let mix = Mix::new(&g0, o.seed);
    let mut session = serving::Session::new();
    let mut analysis_tracer = trace::Tracer::default();
    // Warm-up, untimed: one serving cycle, which loads the server's index,
    // and one analysis pass, which fills the page cache and the allocator.
    session.warm_up(&mut server, &mix)?;
    let mut stage = analysis::Stage::warm_up(w, &files.input, &policy)?;

    // Measured stage: rounds of one serving block then one analysis pass,
    // for `--seconds` and at least the minimum of cycles and passes. Both
    // kinds of sample are spread over the whole run, so a slow spell of the
    // host touches a few blocks and passes of a run rather than all of one
    // kind. The two never overlap: the server idles during a pass.
    let budget_ns = secs_to_ns(o.seconds);
    let start = bestk_obs::now_nanos();
    let mut ops_left = true;
    loop {
        if ops_left {
            ops_left = session.block(&mut server, &mix)?;
        }
        stage.step(o.trace.then_some(&mut analysis_tracer))?;
        let served = session.long_enough() || !ops_left;
        if bestk_obs::now_nanos() - start >= budget_ns && served && stage.has_min_passes(o.trace) {
            break;
        }
    }
    let measured_ns = bestk_obs::now_nanos() - start;
    if !session.long_enough() {
        return Err("the session left fewer than ten samples beyond a percentile".into());
    }
    // The checks and the peak memories, outside the timing.
    let (check_attempted, check_failed) =
        serving::check_final(&mut server, &g0, mix.ops_prefix(session.cycles), &policy)?;
    let server_peak_kib = sysinfo::peak_rss_kib(Some(server.pid()))?;
    server.quit()?;
    let last = stage.last()?;
    let verify_start = bestk_obs::now_nanos();
    let (verify_attempted, verify_failed) = analysis::verify(w, last, &policy);
    let verify_ns = bestk_obs::now_nanos() - verify_start;
    let analysis_peak_kib = peak_pass_in_child(w, &files.input)?;
    let input = InputRecord {
        n: last.graph.num_vertices(),
        m: last.graph.num_edges(),
        kmax: last.decomp.kmax(),
        forest_nodes: last.forest_nodes,
        bytes: file_len(&files.input)?,
    };
    drop(stage.take_last());

    let mut serve_tracer = trace::Tracer::default();
    let layers = if o.trace {
        Some(serving::replay_in_process(
            &pristine,
            &g0,
            &mix,
            MIN_CYCLES,
            &policy,
            &mut serve_tracer,
        )?)
    } else {
        None
    };
    let fsync_us = sysinfo::fsync_probe_us(root, 20)?;

    let attempted = stage.attempted
        + verify_attempted
        + session.requests
        + check_attempted
        + layers.as_ref().map_or(0, |l| l.attempted);
    let failed = stage.failed
        + verify_failed
        + session.failed
        + check_failed
        + layers.as_ref().map_or(0, |l| l.failed);

    let peak_kib = analysis_peak_kib.max(server_peak_kib);
    let metrics = match &layers {
        None => end_to_end(&setup_ns, &stage, peak_kib, &session)?,
        Some(l) => {
            let dir = o.tmp.join("traces");
            std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
            let stem = format!("{}-seed{}", w.name(), o.seed);
            for (tracer, part) in [(&analysis_tracer, "analysis"), (&serve_tracer, "serve")] {
                let path = dir.join(format!("{stem}-{part}.jsonl"));
                tracer
                    .write_jsonl(&path)
                    .map_err(|e| format!("write {}: {e}", path.display()))?;
            }
            per_layer(&stage, &input, &session, l, fsync_us)?
        }
    };

    let samples = [
        ("setups", setup_ns.len()),
        ("blocks", session.block_rps.len()),
        ("analyze_passes", stage.pass_ns.len()),
        ("traced_passes", stage.traced_ns.len()),
        ("reads", session.read_ns.len()),
        ("stages", session.stage_ns.len()),
        ("commits", session.commit_ns.len()),
        ("cycles", session.cycles),
    ];
    let phases = [
        ("setup", setup_ns.iter().sum::<u64>()),
        ("measured", measured_ns),
        ("serving", session.elapsed_ns),
        ("verify", verify_ns),
    ];
    let info = format!(
        "{{\"info\": {{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"nproc\": {}, \
         \"threads\": {}, \"rustc\": {}, \"tmp_fs\": {}, \"fsync_us\": {fsync_us}, \
         \"input\": {{\"n\": {}, \"m\": {}, \"kmax\": {}, \"forest_nodes\": {}, \"bytes\": {}}}, \
         \"served\": {{\"n\": {}, \"m\": {}, \"snapshot_bytes\": {}}}, \
         \"peak_kib\": {{\"server\": {server_peak_kib}, \"analysis_pass\": {analysis_peak_kib}}}, \
         \"steal_pct\": {{\"blocks\": {}, \"passes\": {}}}, \
         \"samples\": {{{}}}, \"phase_s\": {{{}}}, \"error_rate\": {}}}}}",
        quote(w.name()),
        o.seed,
        o.trace,
        sysinfo::nproc(),
        policy.threads(),
        quote(&o.rustc),
        quote(&sysinfo::fs_type(root)),
        input.n,
        input.m,
        input.kmax,
        input.forest_nodes,
        input.bytes,
        g0.num_vertices(),
        g0.num_edges(),
        snapshot_bytes,
        median_pct(&session.block_steal),
        median_pct(&stage.pass_steal),
        samples
            .iter()
            .map(|(k, v)| format!("{}: {v}", quote(k)))
            .collect::<Vec<_>>()
            .join(", "),
        phases
            .iter()
            .map(|(k, ns)| format!("{}: {}", quote(k), *ns as f64 / 1e9))
            .collect::<Vec<_>>()
            .join(", "),
        failed as f64 / attempted.max(1) as f64,
    );
    println!("{info}");
    for m in &metrics {
        eprintln!("{:>14} {:<26} {} {}", w.name(), m.name, m.value, m.unit);
    }
    eprintln!(
        "{:>14} {:<26} {} ({failed} of {attempted})",
        w.name(),
        "error_rate",
        failed as f64 / attempted.max(1) as f64
    );
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

/// Median of shares, as a percentage (0 with none).
fn median_pct(shares: &[f64]) -> f64 {
    100.0 * stats::median_f64(shares).unwrap_or(0.0)
}

/// The analysis input as the last pass loaded it.
struct InputRecord {
    n: usize,
    m: usize,
    kmax: u32,
    forest_nodes: usize,
    bytes: u64,
}

fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("stat {}: {e}", path.display()))
}

fn measure_of(name: &str, value: f64, unit: &str) -> Measure {
    Measure {
        name: name.into(),
        value,
        unit: unit.into(),
    }
}

fn pct(samples: &[u64], p: usize, what: &str) -> Result<f64, String> {
    stats::percentile(samples, p)
        .map(|v| v as f64)
        .ok_or_else(|| format!("no samples for {what}"))
}

fn end_to_end(
    setup_ns: &[u64],
    stage: &analysis::Stage,
    peak_kib: u64,
    s: &serving::Session,
) -> Result<Vec<Measure>, String> {
    Ok(vec![
        measure_of("setup_s", pct(setup_ns, 50, "setup")? / 1e9, "s"),
        measure_of("analyze_s", pct(&stage.pass_ns, 50, "passes")? / 1e9, "s"),
        measure_of("peak_rss_mb", peak_kib as f64 / 1024.0, "MB"),
        measure_of(
            "serve_rps",
            stats::median_f64(&s.block_rps).ok_or("no serving blocks")?,
            "1/s",
        ),
        measure_of("read_p99_us", pct(&s.read_ns, 99, "reads")? / 1e3, "us"),
        measure_of("stage_p50_us", pct(&s.stage_ns, 50, "stages")? / 1e3, "us"),
        measure_of(
            "commit_p50_ms",
            pct(&s.commit_ns, 50, "commits")? / 1e6,
            "ms",
        ),
    ])
}

fn per_layer(
    stage: &analysis::Stage,
    input: &InputRecord,
    s: &serving::Session,
    l: &serving::Layers,
    fsync_us: f64,
) -> Result<Vec<Measure>, String> {
    let layer = |name: &str| analysis::layer_median(stage, name) as f64;
    let traced = pct(&stage.traced_ns, 50, "traced passes")?;
    let untraced = pct(&stage.pass_ns, 50, "passes")?;
    let read_ns = pct(&l.read_ns, 50, "in-process reads")?;
    let client_read_ns = pct(&s.read_ns, 50, "reads")?;
    let median_or_zero = |v: &[u64]| stats::median(v).map_or(0.0, |x| x as f64);
    let commits = l.commits.max(1) as f64;
    Ok(vec![
        measure_of("load.ns", layer("load"), "ns"),
        measure_of("peel.ns", layer("peel"), "ns"),
        measure_of("peel.t1_ns", pct(&stage.peel_t1_ns, 50, "t1 peels")?, "ns"),
        measure_of("order.ns", layer("order"), "ns"),
        measure_of("forest.ns", layer("forest"), "ns"),
        measure_of("sweep.ns", layer("sweep"), "ns"),
        measure_of("coreprof.ns", layer("coreprof"), "ns"),
        measure_of("select.ns", layer("select"), "ns"),
        measure_of("graph.n", input.n as f64, "count"),
        measure_of("graph.m", input.m as f64, "count"),
        measure_of("graph.kmax", f64::from(input.kmax), "count"),
        measure_of("graph.bytes", input.bytes as f64, "bytes"),
        measure_of("forest.nodes", input.forest_nodes as f64, "count"),
        measure_of("peel.rounds", stage.peel_rounds as f64, "count"),
        measure_of(
            "trace.coverage_pct",
            100.0 * stats::median_f64(&stage.coverage).unwrap_or(0.0),
            "%",
        ),
        measure_of(
            "trace.overhead_pct",
            100.0 * (traced - untraced) / untraced,
            "%",
        ),
        measure_of("serve.read_ns", read_ns, "ns"),
        measure_of("read_p50_us", client_read_ns / 1e3, "us"),
        measure_of("serve.overhead_us", (client_read_ns - read_ns) / 1e3, "us"),
        measure_of("engine.rebuild_ns", median_or_zero(&l.rebuild_ns), "ns"),
        measure_of(
            "engine.builds_per_commit",
            l.builds as f64 / commits,
            "count",
        ),
        measure_of("delta.stage_ns", pct(&l.stage_ns, 50, "stages")?, "ns"),
        measure_of("delta.commit_ns", pct(&l.commit_ns, 50, "commits")?, "ns"),
        measure_of("delta.apply_ns", pct(&l.apply_ns, 50, "applies")?, "ns"),
        measure_of("delta.to_csr_ns", pct(&l.to_csr_ns, 50, "to_csr")?, "ns"),
        measure_of(
            "delta.changed_vertices",
            l.changed_vertices as f64 / commits,
            "count",
        ),
        measure_of(
            "delta.recomputed_levels",
            l.recomputed_levels as f64 / commits,
            "count",
        ),
        measure_of(
            "commit_p95_ms",
            pct(&s.commit_ns, 95, "commits")? / 1e6,
            "ms",
        ),
        measure_of("delta.compactions", l.compact_ns.len() as f64, "count"),
        measure_of("delta.compact_ns", median_or_zero(&l.compact_ns), "ns"),
        measure_of("snapshot.open_ns", l.open_ns as f64, "ns"),
        measure_of("env.fsync_us", fsync_us, "us"),
        measure_of("env.nproc", sysinfo::nproc() as f64, "count"),
    ])
}
