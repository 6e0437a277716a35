//! A transparent [`ServingSystem`] wrapper that records a span around every
//! trait call, so the traced run can split host time between the serving
//! loop and step costing without instrumenting the program itself.

use crate::spans::{timed, SharedTrace};
use longsight_obs::Recorder;
use longsight_sched::KvDeviceGeometry;
use longsight_system::{Infeasible, ServingSystem, StepReport};

/// Forwards every call to `inner` unchanged and records its host time.
pub struct TimedSystem {
    inner: Box<dyn ServingSystem>,
    trace: SharedTrace,
}

impl TimedSystem {
    pub fn wrap(inner: Box<dyn ServingSystem>, trace: &SharedTrace) -> Box<dyn ServingSystem> {
        Box::new(TimedSystem {
            inner,
            trace: trace.clone(),
        })
    }
}

impl ServingSystem for TimedSystem {
    fn name(&self) -> String {
        timed(&self.trace, "step_cost.name", || self.inner.name())
    }

    fn evaluate(&mut self, users: usize, context: usize) -> Result<StepReport, Infeasible> {
        self.trace.borrow_mut().shapes.insert((users, context));
        let inner = &mut self.inner;
        timed(&self.trace, "step_cost.evaluate", || {
            inner.evaluate(users, context)
        })
    }

    fn max_users(&self, context: usize) -> usize {
        timed(&self.trace, "step_cost.max_users", || {
            self.inner.max_users(context)
        })
    }

    fn record_step_detail(
        &mut self,
        users: usize,
        context: usize,
        rec: &mut Recorder,
        anchor_ns: f64,
    ) {
        let inner = &mut self.inner;
        timed(&self.trace, "step_cost.record_step_detail", || {
            inner.record_step_detail(users, context, rec, anchor_ns)
        })
    }

    fn kv_geometry(&self, page_tokens: usize) -> Option<KvDeviceGeometry> {
        timed(&self.trace, "step_cost.kv_geometry", || {
            self.inner.kv_geometry(page_tokens)
        })
    }
}
