//! The serving stage: one closed-loop client drives `bestk serve --stdin`
//! over pipes, one request in flight, then checks the served answers
//! against a cold build of the final edge set that the benchmark replays
//! itself.
//!
//! Closed loop, because the server handles one connection at a time and
//! its callers wait for each reply. Each cycle sends the mix's queries,
//! stages its edge ops and commits them, so the first query of the next
//! cycle pays the lazy index rebuild. A session is a run of blocks of
//! [`BLOCK_CYCLES`] cycles, which the run spreads over its whole time.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

use bestk_core::Metric;
use bestk_delta::DeltaIndex;
use bestk_engine::serve::handle_request;
use bestk_engine::{Dataset, Query, SharedEngine};
use bestk_exec::ExecPolicy;
use bestk_graph::generators::EdgeOp;
use bestk_graph::{CsrGraph, GraphBuilder};

use crate::inputs::{
    op_line, Mix, ALL_METRICS, BLOCK_CYCLES, CYCLE_OPS, CYCLE_QUERIES, DATASET, MAX_CYCLES,
    MIN_CYCLES,
};
use crate::stats::enough_beyond;
use crate::sysinfo::CpuTicks;
use crate::trace::Tracer;

/// A running `bestk serve --stdin` child. Dropping it kills and reaps the
/// process if [`Server::quit`] did not end it.
pub struct Server {
    child: Child,
    stdin: BufWriter<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Starts the server with fault injection off.
    pub fn start(bestk: &Path) -> Result<Server, String> {
        let mut child = Command::new(bestk)
            .args(["serve", "--stdin"])
            .env_remove(bestk_faults::ENV_VAR)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("start {}: {e}", bestk.display()))?;
        let (Some(stdin), Some(stdout)) = (child.stdin.take(), child.stdout.take()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("server pipes missing".into());
        };
        Ok(Server {
            child,
            stdin: BufWriter::new(stdin),
            stdout: BufReader::new(stdout),
        })
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends one request line and returns the one-line reply.
    pub fn request(&mut self, line: &str) -> Result<String, String> {
        self.stdin
            .write_all(line.as_bytes())
            .and_then(|()| self.stdin.write_all(b"\n"))
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("send {line:?}: {e}"))?;
        let mut reply = String::new();
        let n = self
            .stdout
            .read_line(&mut reply)
            .map_err(|e| format!("reply to {line:?}: {e}"))?;
        if n == 0 {
            return Err(format!("server closed the pipe on {line:?}"));
        }
        reply.truncate(reply.trim_end_matches(['\n', '\r']).len());
        Ok(reply)
    }

    /// Sends `quit` and waits for the process to exit.
    pub fn quit(mut self) -> Result<(), String> {
        let bye = self.request("quit")?;
        let status = self.child.wait().map_err(|e| format!("wait server: {e}"))?;
        if bye != "ok\tbye" || !status.success() {
            return Err(format!("server quit badly: {bye:?}, {status}"));
        }
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // After a clean quit the process is already reaped; both calls
        // then fail harmlessly.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Client-side round trips of one session.
#[derive(Debug, Default)]
pub struct Session {
    /// Cycles completed, the untimed warm-up cycle included.
    pub cycles: usize,
    /// Wall time spent in timed cycles, ns.
    pub elapsed_ns: u64,
    /// Requests per second of every block.
    pub block_rps: Vec<f64>,
    /// Share of CPU time the host took from this guest (steal) in every
    /// block.
    pub block_steal: Vec<f64>,
    /// Round trip of every timed `query`, ns.
    pub read_ns: Vec<u64>,
    /// Round trip of every timed `add-edge`/`del-edge`, ns.
    pub stage_ns: Vec<u64>,
    /// Round trip of every timed `commit`, ns.
    pub commit_ns: Vec<u64>,
    /// Requests sent.
    pub requests: u64,
    /// Replies that were not `ok`.
    pub failed: u64,
}

impl Session {
    /// A session with room for every sample of the op stream, so the
    /// sample buffers never reallocate while a block is timed.
    pub fn new() -> Session {
        Session {
            read_ns: Vec::with_capacity(MAX_CYCLES * CYCLE_QUERIES),
            stage_ns: Vec::with_capacity(MAX_CYCLES * CYCLE_OPS),
            commit_ns: Vec::with_capacity(MAX_CYCLES),
            ..Session::default()
        }
    }

    /// Whether the session has served its minimum of cycles and every
    /// named percentile has ten samples beyond it.
    pub fn long_enough(&self) -> bool {
        self.commit_ns.len() >= MIN_CYCLES
            && enough_beyond(99, self.read_ns.len())
            && enough_beyond(50, self.stage_ns.len())
            && enough_beyond(95, self.commit_ns.len())
    }

    /// Runs one untimed cycle, which loads the server's index; its
    /// replies still count toward `requests` and `failed`.
    pub fn warm_up(&mut self, server: &mut Server, mix: &Mix) -> Result<(), String> {
        self.cycle(server, mix)?;
        self.elapsed_ns = 0;
        self.read_ns.clear();
        self.stage_ns.clear();
        self.commit_ns.clear();
        Ok(())
    }

    /// Runs the next block of [`BLOCK_CYCLES`] cycles and records its
    /// request rate and steal. Returns `false`, serving nothing, once the
    /// op stream cannot cover another whole block.
    pub fn block(&mut self, server: &mut Server, mix: &Mix) -> Result<bool, String> {
        if mix.ops(self.cycles + BLOCK_CYCLES - 1).is_none() {
            return Ok(false);
        }
        let (requests, elapsed, ticks) = (self.requests, self.elapsed_ns, CpuTicks::now());
        for _ in 0..BLOCK_CYCLES {
            self.cycle(server, mix)?;
        }
        self.block_steal.push(ticks.steal_share());
        let secs = (self.elapsed_ns - elapsed).max(1) as f64 / 1e9;
        self.block_rps
            .push((self.requests - requests) as f64 / secs);
        Ok(true)
    }

    /// Runs the next whole cycle: its queries, its staged ops, one
    /// commit.
    fn cycle(&mut self, server: &mut Server, mix: &Mix) -> Result<(), String> {
        let ops = mix.ops(self.cycles).ok_or("the op stream is used up")?;
        let t0 = bestk_obs::now_nanos();
        for q in mix.queries(self.cycles) {
            let ns = round_trip(server, &format!("query {DATASET} {q}"), self)?;
            self.read_ns.push(ns);
        }
        for op in ops {
            let ns = round_trip(server, &op_line(op), self)?;
            self.stage_ns.push(ns);
        }
        let ns = round_trip(server, &format!("commit {DATASET}"), self)?;
        self.commit_ns.push(ns);
        self.cycles += 1;
        self.elapsed_ns += bestk_obs::now_nanos() - t0;
        Ok(())
    }
}

fn round_trip(server: &mut Server, line: &str, s: &mut Session) -> Result<u64, String> {
    let t0 = bestk_obs::now_nanos();
    let reply = server.request(line)?;
    let ns = bestk_obs::now_nanos() - t0;
    s.requests += 1;
    if !reply.starts_with("ok\t") {
        if s.failed < 5 {
            eprintln!("perfbench: {line:?} -> {reply:?}");
        }
        s.failed += 1;
    }
    Ok(ns)
}

/// The `bestkset` and `bestcore` queries of all eight metrics.
fn final_queries() -> Vec<(String, Query)> {
    ALL_METRICS
        .iter()
        .flat_map(|&metric: &Metric| {
            [
                (
                    format!("bestkset {}", metric.abbrev()),
                    Query::BestKSet { metric },
                ),
                (
                    format!("bestcore {}", metric.abbrev()),
                    Query::BestCore { metric },
                ),
            ]
        })
        .collect()
}

/// Compares the server's final answers with a cold [`Dataset`] build of
/// `g0` with `ops` applied by the benchmark's own edge-set replay.
/// Returns `(attempted, failed)`.
pub fn check_final(
    server: &mut Server,
    g0: &CsrGraph,
    ops: &[EdgeOp],
    policy: &ExecPolicy,
) -> Result<(u64, u64), String> {
    let mut edges: BTreeSet<(u32, u32)> = g0.edges().collect();
    let mut failed = 0u64;
    for op in ops {
        let applied = match *op {
            EdgeOp::Insert(u, v) => edges.insert((u.min(v), u.max(v))),
            EdgeOp::Delete(u, v) => edges.remove(&(u.min(v), u.max(v))),
        };
        if !applied {
            failed += 1;
        }
    }
    let mut b = GraphBuilder::with_capacity(edges.len());
    b.reserve_vertices(g0.num_vertices());
    for (u, v) in edges {
        b.add_edge(u, v);
    }
    let mut cold = Dataset::from_graph(b.build());
    cold.ensure_built(policy);
    let queries = final_queries();
    for (text, query) in &queries {
        let served = server.request(&format!("query {DATASET} {text}"))?;
        let expected = cold
            .answer(query)
            .map(|a| format!("ok\t{}", a.to_line()))
            .map_err(|e| e.to_string())?;
        if served != expected {
            eprintln!("perfbench: {text}: served {served:?}, cold build {expected:?}");
            failed += 1;
        }
    }
    Ok((queries.len() as u64 + ops.len() as u64, failed))
}

/// Layer times of an in-process replay of the session.
#[derive(Debug, Default)]
pub struct Layers {
    /// The `load` verb: v2 open plus WAL adoption, ns.
    pub open_ns: u64,
    /// `handle_request` on a query with the index resident, ns.
    pub read_ns: Vec<u64>,
    /// `handle_request` on a query that rebuilt the index, ns.
    pub rebuild_ns: Vec<u64>,
    /// `SharedEngine::stage_edge`, ns.
    pub stage_ns: Vec<u64>,
    /// `SharedEngine::commit_edges` without compaction, ns.
    pub commit_ns: Vec<u64>,
    /// `SharedEngine::commit_edges` that compacted, ns.
    pub compact_ns: Vec<u64>,
    /// `DeltaIndex::apply` summed over one cycle's ops, ns.
    pub apply_ns: Vec<u64>,
    /// `DeltaIndex::to_csr`, ns.
    pub to_csr_ns: Vec<u64>,
    /// Sum of `ApplyStats::changed_vertices`.
    pub changed_vertices: u64,
    /// Sum of `ApplyStats::recomputed_levels`.
    pub recomputed_levels: u64,
    /// Index builds the engine counted.
    pub builds: u64,
    /// Commits made.
    pub commits: u64,
    /// Calls that failed.
    pub failed: u64,
    /// Calls made.
    pub attempted: u64,
}

fn tally(ok: bool, l: &mut Layers) {
    l.attempted += 1;
    if !ok {
        l.failed += 1;
    }
}

fn timed<T>(tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
    let id = tr.enter(name);
    let v = f();
    tr.exit(id);
    (v, tr.nanos(id))
}

/// Replays the first `cycles` cycles of `mix` in this process on a fresh
/// copy of the snapshot, with spans around the engine's public calls. A
/// shadow [`DeltaIndex`] takes the same ops to time repair and `to_csr`
/// on their own.
pub fn replay_in_process(
    snapshot: &Path,
    g0: &CsrGraph,
    mix: &Mix,
    cycles: usize,
    policy: &ExecPolicy,
    tr: &mut Tracer,
) -> Result<Layers, String> {
    let mut l = Layers::default();
    let engine = SharedEngine::with_budget(None);
    let load = format!("load {DATASET} {}", snapshot.display());
    let ((reply, _), ns) = timed(tr, "snapshot.open", || {
        handle_request(&engine, policy, &load)
    });
    l.open_ns = ns;
    if !reply.starts_with("ok\t") {
        return Err(format!("in-process load failed: {reply}"));
    }
    let mut shadow = DeltaIndex::build_with(g0, policy);
    for c in 0..cycles {
        let cycle = tr.enter("cycle");
        for q in mix.queries(c) {
            let line = format!("query {DATASET} {q}");
            let before = engine.counters().builds;
            let ((reply, _), ns) =
                timed(tr, "serve.query", || handle_request(&engine, policy, &line));
            let built = engine.counters().builds - before;
            l.builds += built;
            if built > 0 {
                &mut l.rebuild_ns
            } else {
                &mut l.read_ns
            }
            .push(ns);
            tally(reply.starts_with("ok\t"), &mut l);
        }
        let ops = mix.ops(c).ok_or("op stream ran out")?;
        let mut apply_ns = 0;
        for op in ops {
            let (staged, ns) = timed(tr, "delta.stage", || engine.stage_edge(DATASET, *op));
            l.stage_ns.push(ns);
            tally(staged.is_ok(), &mut l);
            let (stats, ns) = timed(tr, "delta.apply", || shadow.apply(op));
            apply_ns += ns;
            if let Ok(s) = &stats {
                l.changed_vertices += s.changed_vertices as u64;
                l.recomputed_levels += u64::from(s.recomputed_levels);
            }
            tally(stats.is_ok(), &mut l);
        }
        l.apply_ns.push(apply_ns);
        let (committed, ns) = timed(tr, "delta.commit", || engine.commit_edges(DATASET, policy));
        match &committed {
            Ok(summary) if summary.compacted => l.compact_ns.push(ns),
            _ => l.commit_ns.push(ns),
        }
        tally(committed.is_ok(), &mut l);
        l.commits += 1;
        let (csr, ns) = timed(tr, "delta.to_csr", || shadow.to_csr());
        l.to_csr_ns.push(ns);
        drop(std::hint::black_box(csr));
        tr.exit(cycle);
    }
    Ok(l)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_minimum_session_leaves_ten_samples_beyond_every_named_percentile() {
        let s = Session {
            read_ns: vec![0; MIN_CYCLES * CYCLE_QUERIES],
            stage_ns: vec![0; MIN_CYCLES * CYCLE_OPS],
            commit_ns: vec![0; MIN_CYCLES],
            ..Session::default()
        };
        assert!(s.long_enough());
        let short = Session {
            commit_ns: vec![0; MIN_CYCLES - 1],
            ..s
        };
        assert!(!short.long_enough(), "one cycle short of the minimum");
        let few_reads = Session {
            read_ns: vec![0; 999],
            commit_ns: vec![0; MIN_CYCLES],
            ..short
        };
        assert!(!few_reads.long_enough(), "p99 of 999 reads has 9 beyond");
    }
}
