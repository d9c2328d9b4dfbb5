//! What a query is, as the runtime sees it: the [`QueryJob`] lifecycle
//! every operator implements, and the direct path that runs one alone —
//! [`Runtime::new`] / [`Runtime::try_run`] on a dedicated fabric and a
//! simulation of their own, driven by [`run_direct`]. An admission of
//! [`QueryService`](crate::QueryService) performs the same attach / run /
//! finish sequence on a query-scoped [`Runtime`] (`admission.rs`).

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use rsj_rdma::{Fabric, FabricConfig, FaultPlan, NicCosts, QueryId};
use rsj_sim::{SimCtx, SimTime, Simulation};

use crate::error::JoinError;
use crate::runtime::{ClusterRun, Runtime};

/// One query's worth of work, as the service sees it: the operator crates
/// implement this for each join type, keeping their input, the running
/// attempt's state and the folded outcome in an [`Attempts`] so the trait
/// stays object-safe.
///
/// Lifecycle: `attach` (building the attempt's shared state and pools via
/// [`Runtime::make_pool`]), then `run_worker` on every `machines() ×
/// cores()` simulated core, then `finish` once after the workers drained
/// (merging per-machine outputs into the job's recorded outcome). A
/// healing [`QueryService`](crate::QueryService) re-attaches the same job
/// for each re-execution attempt; every attempt reads the job's input in
/// place, so a re-attach starts from pristine bytes.
pub trait QueryJob {
    /// Machines this query wants (≤ the service's host count).
    fn machines(&self) -> usize;
    /// Worker cores per machine (≤ the service's cores per host).
    fn cores(&self) -> usize;
    /// Build the query's shared state against its admitted runtime.
    fn attach(&self, rt: &Arc<Runtime>);
    /// One worker's run; an `Err` aborts this query (and only this query).
    fn run_worker(
        &self,
        ctx: &SimCtx,
        rt: &Runtime,
        machine: usize,
        core: usize,
    ) -> Result<(), JoinError>;
    /// Merge and record the outcome after a successful run.
    fn finish(&self, rt: &Runtime, run: &ClusterRun);
}

/// The per-attempt bookkeeping of a [`QueryJob`]: the job's input, the
/// running attempt's state, and the outcome its `finish` folded. The
/// input is borrowed, never consumed or copied: every attempt reads it in
/// place, so a healing service's re-attach starts from pristine bytes
/// (DESIGN.md §13).
pub struct Attempts<I, S, O> {
    input: I,
    state: RefCell<Option<Rc<S>>>,
    outcome: RefCell<Option<O>>,
}

impl<I, S, O> Attempts<I, S, O> {
    /// A job's bookkeeping before its first attempt.
    pub fn new(input: I) -> Attempts<I, S, O> {
        Attempts {
            input,
            state: RefCell::new(None),
            outcome: RefCell::new(None),
        }
    }

    /// Start an attempt with the state `build` makes, replacing whatever
    /// a failed attempt left.
    pub fn attach(&self, build: impl FnOnce() -> S) {
        self.state.replace(Some(Rc::new(build())));
    }

    /// The input and the running attempt's state, for one worker. No
    /// borrow is held, so the worker may yield while it reads both.
    pub fn state(&self) -> (&I, Rc<S>) {
        let state = self.state.borrow().clone().expect("job not attached");
        (&self.input, state)
    }

    /// End the attempt: take its state and fold it into the outcome.
    pub fn finish(&self, fold: impl FnOnce(&S) -> O) {
        let state = self
            .state
            .take()
            .expect("finish without a preceding attach");
        self.outcome.replace(Some(fold(&state)));
    }

    /// The recorded outcome of a finished run (`None` before `finish` or
    /// if the run aborted).
    pub fn take_outcome(&self) -> Option<O> {
        self.outcome.take()
    }
}

impl Runtime {
    /// Build the runtime for a `machines × cores` cluster over a fresh
    /// fabric. Workers are spawned by [`Runtime::run`].
    pub fn new(
        machines: usize,
        cores: usize,
        fabric_cfg: FabricConfig,
        nic: NicCosts,
    ) -> Arc<Runtime> {
        Runtime::new_with_plan(machines, cores, fabric_cfg, nic, None)
    }

    /// Like [`Runtime::new`], but optionally arms the fabric's
    /// deterministic fault plane with `plan`. With `None` the runtime is
    /// event-for-event identical to [`Runtime::new`].
    pub fn new_with_plan(
        machines: usize,
        cores: usize,
        fabric_cfg: FabricConfig,
        nic: NicCosts,
        plan: Option<FaultPlan>,
    ) -> Arc<Runtime> {
        assert!(machines >= 1 && cores >= 1);
        let fabric = Fabric::new_with_plan(fabric_cfg, nic, machines, plan);
        Runtime::over_fabric(
            fabric,
            QueryId::DIRECT,
            nic,
            None,
            machines,
            cores,
            SimTime::ZERO,
        )
    }

    /// Run `worker(ctx, runtime, machine, core)` on every simulated core,
    /// shutting the fabric down after the last worker finishes. Returns
    /// the recorded marks and events. Panics if the run aborts (use
    /// [`Runtime::try_run`] for fallible workers).
    pub fn run<F>(self: &Arc<Self>, worker: F) -> ClusterRun
    where
        F: Fn(&SimCtx, &Runtime, usize, usize) + 'static,
    {
        self.try_run(move |ctx, rt, mach, core| {
            worker(ctx, rt, mach, core);
            Ok(())
        })
        .unwrap_or_else(|e| panic!("cluster run failed: {e}"))
    }

    /// Run a fallible `worker` on every simulated core of a fresh
    /// simulation that this runtime owns, over its dedicated fabric. A
    /// worker's `Err` aborts the whole run ([`Runtime::fail`]); the first
    /// error becomes the result. The launch itself — worker wrapper, live
    /// counter, watchdog — is [`Runtime::spawn_workers`]; what is the
    /// direct path's own is stopping the fabric engines after a clean run
    /// and the rack-wide teardown audit.
    pub fn try_run<F>(self: &Arc<Self>, worker: F) -> Result<ClusterRun, JoinError>
    where
        F: Fn(&SimCtx, &Runtime, usize, usize) -> Result<(), JoinError> + 'static,
    {
        let sim = Simulation::new();
        self.fabric.launch(&sim);
        let outcome = Arc::new(RefCell::new(None));
        let slot = Arc::clone(&outcome);
        let fabric = Arc::clone(&self.fabric);
        self.spawn_workers(&sim, worker, move |ctx, result| {
            // An aborted run already flushed and stopped the engines.
            if result.is_ok() {
                fabric.shutdown(ctx);
            }
            *slot.borrow_mut() = Some(result);
        });
        sim.run();
        let run = outcome
            .take()
            .expect("the last worker out reports the outcome")?;
        // The simulation has quiesced: audit the verbs-contract end state
        // (undrained completions, unreposted receive slots, leaked pool
        // buffers) before reporting results.
        self.fabric.validator().check_teardown();
        Ok(run)
    }
}

/// Run `job` alone, on a dedicated fabric and a simulation of its own:
/// the one direct driver behind every operator's `try_run_*` entry point.
/// It performs the same attach / run / finish sequence as a
/// [`QueryService`](crate::QueryService) admission.
pub fn run_direct<J: QueryJob + 'static>(
    job: &Arc<J>,
    fabric: FabricConfig,
    nic: NicCosts,
    plan: Option<FaultPlan>,
) -> Result<ClusterRun, JoinError> {
    let rt = Runtime::new_with_plan(job.machines(), job.cores(), fabric, nic, plan);
    job.attach(&rt);
    let worker = Arc::clone(job);
    let run = rt.try_run(move |ctx, rt, mach, core| worker.run_worker(ctx, rt, mach, core))?;
    job.finish(&rt, &run);
    Ok(run)
}
