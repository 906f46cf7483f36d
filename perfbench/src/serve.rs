//! `server_optimizer`: an optimizer session against one in-process server
//! over loopback, one client, closed loop. Each design is loaded in turn
//! into the run's one named session, addressed through the protocol-v2
//! `session` field.
//!
//! A step is `path`, a `whatif_batch` of upsizes on that path, a
//! `commit`, then the reads `wns`, `tns` and `slack`. Commits alternate
//! between the step's best upsize and the revert of the previous one, so
//! the design state stays stationary. An op is two steps, upsize then
//! revert, so every op starts from the same state and repeats the same
//! work. Candidates come only from cells the generated netlist can
//! upsize, given the one cell that may currently be upsized, so every
//! request is valid by construction.

use crate::design;
use crate::layers::{timed, Layers, Metric};
use crate::stats;
use crate::{Designs, Workload};
use netlist::{CellRole, DesignSpec, LibCellId, Library};
use server::json::Value;
use server::proto::Command;
use server::{Client, ClientConfig, Server, ServerConfig};
use std::cell::RefCell;
use std::collections::HashMap;
use std::path::PathBuf;
use std::rc::Rc;
use std::thread::JoinHandle;

/// The design class the session holds. D5 rather than the larger D3: a
/// D3 design's op cost varies up to 5.5-fold between seeds (log standard
/// deviation 0.48), a D5 design's by 0.18, while its read right after a
/// commit still waits over 20 times as long as other reads.
const SPEC: DesignSpec = DesignSpec::D5;

/// The session every design is loaded into; a `load` replaces the
/// previous design with its engine and calibration.
const SESSION: &str = "bench";

/// Upsize candidates per `whatif_batch`.
const MAX_CANDIDATES: usize = 8;

/// Worst endpoints each `slack` read asks for.
const SLACK_TOP: usize = 10;

/// Directory, relative to the working directory, for the netlist file
/// the server loads; removed again once loaded.
const WORK_DIR: &str = ".bench_work";

/// The run's one in-process server and the one client connection to
/// it, shared by every design.
struct Link {
    client: Client,
    server: Option<JoinHandle<Result<(), mgba::MgbaError>>>,
}

fn wire(e: mgba::MgbaError) -> String {
    format!("server: {e}")
}

impl Link {
    /// One strict round trip on `session`; a non-ok response is an error.
    fn call(&mut self, session: &str, cmd: Command) -> Result<Value, String> {
        let name = cmd.name();
        self.client.set_session(session);
        self.client
            .call(&cmd)
            .and_then(|r| r.into_result())
            .map_err(|e| format!("`{name}`: {e}"))
    }

    /// Mean of each request stage the server timed itself, µs, from its
    /// `mgba_server_stage_us` histograms (set-ups included).
    fn stage_means(&mut self) -> Result<Vec<Metric>, String> {
        let session = self.client.session().to_owned();
        let reply = self.call(&session, Command::Metrics)?;
        let text = reply
            .get("exposition")
            .and_then(Value::as_str)
            .ok_or("`metrics` reply has no `exposition`")?;
        let sample = |suffix: &str, stage: &str| {
            let head = format!("mgba_server_stage_us_{suffix}{{");
            let label = format!("stage=\"{stage}\"");
            text.lines()
                .filter(|l| l.starts_with(&head) && l.contains(&label))
                .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
                .sum::<f64>()
        };
        // The default configuration funnels reads through the writer
        // lane, so the read pool's `ticket_wait` stage never runs; a stage
        // without samples gets no figure.
        Ok(["queue_wait", "execute", "reply_write"]
            .into_iter()
            .filter(|stage| sample("count", stage) > 0.0)
            .map(|stage| {
                let mean = sample("sum", stage) / sample("count", stage);
                Metric::new(format!("server.{stage}_us"), mean, "us")
            })
            .collect())
    }

    /// Shuts the server down and waits for it.
    fn stop(&mut self) -> Result<(), String> {
        let Some(server) = self.server.take() else {
            return Ok(());
        };
        let session = self.client.session().to_owned();
        let sent = self.call(&session, Command::Shutdown).map(drop);
        let joined = match server.join() {
            Ok(r) => r.map_err(wire),
            Err(_) => Err("server thread panicked".into()),
        };
        sent.and(joined)
    }
}

impl Drop for Link {
    fn drop(&mut self) {
        // A run that failed midway still stops its server; errors are
        // already reported by the failing call.
        let _ = self.stop();
    }
}

/// The server workload's run: one server with the default config, one
/// loopback client, and one session the designs are loaded into in turn.
pub struct ServerRun {
    link: Rc<RefCell<Link>>,
    /// Latency of every read request of the timed ops, ms, over all
    /// designs: single reads are one kind of op whatever the design.
    reads: Rc<RefCell<Vec<f64>>>,
}

impl ServerRun {
    /// Binds the server to a free loopback port, starts it on its own
    /// thread and connects the client.
    pub fn start() -> Result<Self, String> {
        let bound = Server::bind("127.0.0.1:0", ServerConfig::default()).map_err(wire)?;
        let addr = bound.local_addr().map_err(wire)?.to_string();
        let server = std::thread::spawn(move || bound.run());
        let config = ClientConfig {
            connect_retries: 0,
            ..ClientConfig::default()
        };
        let link = Link {
            client: Client::connect(&addr, config).map_err(wire)?,
            server: Some(server),
        };
        Ok(Self {
            link: Rc::new(RefCell::new(link)),
            reads: Rc::default(),
        })
    }
}

impl Designs for ServerRun {
    fn setup(&mut self, seed: u64, layers: &mut Layers) -> Result<Box<dyn Workload>, String> {
        let link = Rc::clone(&self.link);
        let w = ServerOptimizer::setup(link, Rc::clone(&self.reads), seed, layers)?;
        Ok(Box::new(w))
    }

    fn finish(self: Box<Self>) -> Result<Vec<Metric>, String> {
        let mut link = self.link.borrow_mut();
        let scraped = link.stage_means();
        link.stop()?;
        let reads = self.reads.borrow();
        let mut out = scraped?;
        out.push(Metric::new("read_p50_ms", stats::median(&reads), "ms"));
        if let Some(t) = stats::tail(&reads) {
            out.push(Metric::new("read_tail_ms", t.value, "ms").with_note(t.note("reads")));
        }
        Ok(out)
    }
}

/// One design, loaded in the optimizer session.
pub struct ServerOptimizer {
    link: Rc<RefCell<Link>>,
    library: Library,
    /// Base library cell of every combinational cell that can be upsized.
    upsizable: HashMap<String, LibCellId>,
    /// The cell the last commit upsized, with the library cell name its
    /// revert restores.
    pending: Option<(String, String)>,
    /// Latency of every read request of the timed ops, ms.
    reads: Vec<f64>,
    /// The run's pool of read latencies, which [`Workload::finish`]
    /// adds this design's to.
    pool: Rc<RefCell<Vec<f64>>>,
    dirty_rows: u64,
    total_rows: u64,
}

impl ServerOptimizer {
    /// Generates the design, writes it as a netlist file, loads and
    /// calibrates it in the session, and runs the warm-up op.
    fn setup(
        link: Rc<RefCell<Link>>,
        pool: Rc<RefCell<Vec<f64>>>,
        seed: u64,
        layers: &mut Layers,
    ) -> Result<Self, String> {
        let netlist = design::generate(SPEC, seed, layers);
        let period = design::period_at_fraction(&netlist, bench::violation_fraction(SPEC), layers)?;
        let library = netlist.library().clone();
        let upsizable = netlist
            .cells()
            .filter(|(_, c)| c.role == CellRole::Combinational)
            .filter(|(_, c)| library.upsized(c.lib_cell).is_some())
            .map(|(_, c)| (c.name.clone(), c.lib_cell))
            .collect();
        let dir = PathBuf::from(WORK_DIR);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{WORK_DIR}: {e}"))?;
        let file = dir.join(format!("server_optimizer_{seed}.nl"));
        std::fs::write(&file, netlist::write_netlist(&netlist))
            .map_err(|e| format!("{}: {e}", file.display()))?;

        let mut w = Self {
            link,
            library,
            upsizable,
            pending: None,
            reads: Vec::new(),
            pool,
            dirty_rows: 0,
            total_rows: 0,
        };
        // Loading replaces the session's previous design, engine and
        // calibration.
        let spec = file.to_string_lossy().into_owned();
        let loaded = layers.time("server.load_ms", || {
            w.call(Command::Load {
                spec,
                period: Some(period),
            })
        });
        let _ = std::fs::remove_file(&file);
        let _ = std::fs::remove_dir(&dir);
        loaded?;
        layers.time("server.calibrate_ms", || {
            w.call(Command::Calibrate {
                solver: Some("scgrs".into()),
            })
        })?;
        w.op()?;
        w.reads.clear();
        w.dirty_rows = 0;
        w.total_rows = 0;
        Ok(w)
    }

    /// One strict round trip on the session.
    fn call(&mut self, cmd: Command) -> Result<Value, String> {
        self.link.borrow_mut().call(SESSION, cmd)
    }

    /// [`Self::call`], timed in ms.
    fn timed_call(&mut self, cmd: Command) -> Result<(Value, f64), String> {
        let (r, ms) = timed(|| self.call(cmd));
        r.map(|v| (v, ms))
    }

    /// Up to [`MAX_CANDIDATES`] cells of `path` that can take an upsize
    /// in the current design state, in path order.
    fn candidates(&self, path: &Value) -> Result<Vec<String>, String> {
        let Some(Value::Arr(cells)) = path.get("cells") else {
            return Err("`path` reply has no `cells`".into());
        };
        let upsizable_now = |name: &str| {
            let Some(&base) = self.upsizable.get(name) else {
                return false;
            };
            match &self.pending {
                Some((cell, _)) if cell == name => self
                    .library
                    .upsized(base)
                    .and_then(|up| self.library.upsized(up))
                    .is_some(),
                _ => true,
            }
        };
        Ok(cells
            .iter()
            .filter_map(Value::as_str)
            .filter(|n| upsizable_now(n))
            .take(MAX_CANDIDATES)
            .map(str::to_owned)
            .collect())
    }

    /// One optimizer step. With `layers`, each request kind is recorded
    /// as a layer stage.
    fn step(&mut self, mut layers: Option<&mut Layers>) -> Result<(), String> {
        let mut record = |name: &str, ms: f64| {
            if let Some(l) = layers.as_deref_mut() {
                l.stage_ms(name, ms);
            }
        };
        let (path, ms) = self.timed_call(Command::PathQuery {
            endpoint: None,
            pba: false,
        })?;
        record("server.path_ms", ms);
        let candidates = self.candidates(&path)?;
        if candidates.is_empty() {
            return Err("no upsizable cell on the worst path".into());
        }
        let resizes = candidates
            .iter()
            .map(|c| (c.clone(), "up".into()))
            .collect();
        let (batch, ms) = self.timed_call(Command::WhatIfBatch {
            resizes,
            pba: false,
        })?;
        record("server.whatif_batch_ms", ms);
        let best = best_candidate(&batch)?;

        let commit = match self.pending.take() {
            Some((cell, base)) => Command::Commit {
                cell,
                to: base,
                full: false,
            },
            None => {
                let base = self.upsizable[&best];
                let base_name = self.library.cell(base).name.clone();
                self.pending = Some((best.clone(), base_name));
                Command::Commit {
                    cell: best,
                    to: "up".into(),
                    full: false,
                }
            }
        };
        let (reply, ms) = self.timed_call(commit)?;
        record("server.commit_ms", ms);
        let recal = reply
            .get("recalibrate")
            .ok_or("`commit` reply has no `recalibrate`")?;
        let field = |k: &str| recal.get(k).and_then(Value::as_str).unwrap_or("");
        if field("mode") != "warm" || field("fallback_stage") != "primary" {
            return Err(format!(
                "commit refit was mode `{}`, stage `{}`; want warm, primary",
                field("mode"),
                field("fallback_stage")
            ));
        }
        let rows = |k: &str| recal.get(k).and_then(Value::as_u64).unwrap_or(0);
        self.dirty_rows += rows("dirty_rows");
        self.total_rows += rows("total_rows");

        let (_, ms) = self.timed_call(Command::Wns)?;
        record("server.read_after_write_ms", ms);
        self.reads.push(ms);
        for cmd in [
            Command::Tns,
            Command::Slack {
                endpoint: None,
                top: SLACK_TOP,
            },
        ] {
            let (_, ms) = self.timed_call(cmd)?;
            record("server.read_ms", ms);
            self.reads.push(ms);
        }
        Ok(())
    }
}

/// The candidate whose upsize improves WNS most (then TNS; path order
/// breaks ties). Any per-candidate error fails the step: candidates are
/// valid by construction.
fn best_candidate(batch: &Value) -> Result<String, String> {
    let Some(Value::Arr(results)) = batch.get("results") else {
        return Err("`whatif_batch` reply has no `results`".into());
    };
    let mut best: Option<(f64, f64, &str)> = None;
    for r in results {
        if let Some(e) = r.get("error") {
            return Err(format!(
                "`whatif_batch` candidate failed: {}",
                server::json::render(e)
            ));
        }
        let num = |k: &str| {
            r.get(k)
                .and_then(Value::as_f64)
                .unwrap_or(f64::NEG_INFINITY)
        };
        let cell = r.get("cell").and_then(Value::as_str).unwrap_or("");
        let key = (num("delta_wns"), num("delta_tns"));
        if best.is_none_or(|(w, t, _)| key.0 > w || (key.0 == w && key.1 > t)) {
            best = Some((key.0, key.1, cell));
        }
    }
    best.map(|(_, _, c)| c.to_owned())
        .ok_or_else(|| "`whatif_batch` returned no candidates".into())
}

impl Workload for ServerOptimizer {
    fn op(&mut self) -> Result<(), String> {
        self.step(None)?;
        self.step(None)
    }

    fn traced_op(&mut self, layers: &mut Layers) -> Result<(), String> {
        self.step(Some(&mut *layers))?;
        self.step(Some(layers))
    }

    fn finish(self: Box<Self>) -> Result<Vec<Metric>, String> {
        self.pool.borrow_mut().extend(&self.reads);
        let ratio = self.dirty_rows as f64 / self.total_rows.max(1) as f64;
        Ok(vec![Metric::new("server.dirty_row_ratio", ratio, "ratio")])
    }
}
