//! The serving decisions as one sans-IO state machine, [`ServeCore`],
//! and [`check_serve_protocol`], which model-checks that same core: the
//! server runs it under a mutex, the checker explores it over every
//! interleaving, so what is proved is what runs.

use std::collections::VecDeque;
use wts_verify::{Explorer, ProtoReport};

/// What a non-blocking take found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Take<T> {
    /// The oldest queued item.
    Item(T),
    /// Nothing yet: wait for another transition.
    Wait,
    /// Nothing ever again: the taker's loop is over.
    Closed,
}

/// The serving state machine: a bounded job FIFO the readers admit
/// into, a bounded observation FIFO the workers hand served batches to
/// the retrainer through, the live-worker count and a closed flag. Every
/// transition is non-blocking and knows nothing of sockets, threads,
/// clocks or payloads.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ServeCore<J, O> {
    jobs: VecDeque<J>,
    observations: VecDeque<O>,
    depth: usize,
    workers: usize,
    closed: bool,
}

impl<J, O> ServeCore<J, O> {
    /// An open core with both FIFOs bounded at `queue_depth`, served by
    /// `workers` workers.
    pub fn new(queue_depth: usize, workers: usize) -> ServeCore<J, O> {
        ServeCore { jobs: VecDeque::new(), observations: VecDeque::new(), depth: queue_depth, workers, closed: false }
    }

    /// Queues `job`, or hands it back to be shed when the job FIFO is
    /// full or the core is closed.
    pub fn admit(&mut self, job: J) -> Result<(), J> {
        if self.closed || self.jobs.len() >= self.depth {
            return Err(job);
        }
        self.jobs.push_back(job);
        Ok(())
    }

    /// The next job; [`Take::Closed`] once the core is closed and every
    /// admitted job was taken.
    pub fn take_job(&mut self) -> Take<J> {
        match self.jobs.pop_front() {
            Some(job) => Take::Item(job),
            None if self.closed => Take::Closed,
            None => Take::Wait,
        }
    }

    /// Queues a served batch's observation for the retrainer, or hands
    /// it back when the observation FIFO is full.
    pub fn offer(&mut self, observation: O) -> Result<(), O> {
        if self.observations.len() >= self.depth {
            return Err(observation);
        }
        self.observations.push_back(observation);
        Ok(())
    }

    /// The next observation; [`Take::Closed`] only once the core is
    /// closed, every worker has exited and the FIFO is empty.
    pub fn take_observation(&mut self) -> Take<O> {
        match self.observations.pop_front() {
            Some(observation) => Take::Item(observation),
            None if self.closed && self.workers == 0 => Take::Closed,
            None => Take::Wait,
        }
    }

    /// Stops admitting: the workers drain what was admitted, then exit.
    pub fn close(&mut self) {
        self.closed = true;
    }

    /// Records that a worker saw [`Take::Closed`] and exited.
    pub fn worker_exit(&mut self) {
        self.workers = self.workers.checked_sub(1).expect("every worker exits once");
    }
}

/// Bounds of the serve-protocol model.
#[derive(Debug, Clone, Copy)]
pub struct ServeProtoConfig {
    /// Client requests (distinct ids).
    pub requests: usize,
    /// Serving workers.
    pub workers: usize,
    /// Depth of both FIFOs; admissions beyond it shed.
    pub queue_depth: usize,
    /// Decided units per request.
    pub units_per_request: usize,
}

impl Default for ServeProtoConfig {
    fn default() -> ServeProtoConfig {
        ServeProtoConfig { requests: 3, workers: 2, queue_depth: 1, units_per_request: 2 }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Worker {
    /// Waiting in `take_job`.
    Idle,
    /// Serving the request id it took.
    Serving(u8),
    /// Responded; offering that many served units to the retrainer.
    Offering(u8),
    /// Saw `Closed` and exited.
    Exited,
}

/// The explored world: the core plus the bookkeeping the invariants read.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct World {
    core: ServeCore<u8, u8>,
    /// Request ids not yet sent.
    unsent: Vec<bool>,
    /// Responses per request id, saturating at 2 ("duplicate").
    responses: Vec<u8>,
    workers: Vec<Worker>,
    /// Units decided by workers / absorbed by the retrainer.
    served: u8,
    absorbed: u8,
    /// The retrainer saw `Closed`; the shutdown step has run.
    retrainer_done: bool,
    shutdown: bool,
}

/// The two actions the mutation tests perturb: what becomes of a request
/// after it was shed and answered `Busy`, and the shutdown step.
struct Actions {
    shed: fn(&mut World, u8),
    close: fn(&mut ServeCore<u8, u8>),
}

/// The server's own: a shed request is gone (its client owns the retry),
/// and shutdown is [`ServeCore::close`].
const FAITHFUL: Actions = Actions { shed: |_, _| {}, close: ServeCore::close };

/// Model-checks the `wts-serve` exchange, every step a [`ServeCore`]
/// call — clients send, workers take, respond and offer, the retrainer
/// absorbs, one shutdown closes — proving over every interleaving one
/// response per request id, a lossless drain and a shutdown that ends.
pub fn check_serve_protocol(cfg: ServeProtoConfig) -> ProtoReport {
    explore(cfg, &FAITHFUL)
}

fn explore(cfg: ServeProtoConfig, act: &Actions) -> ProtoReport {
    let units = u8::try_from(cfg.units_per_request).expect("units_per_request fits u8");
    let init = World {
        core: ServeCore::new(cfg.queue_depth, cfg.workers),
        unsent: vec![true; cfg.requests],
        responses: vec![0; cfg.requests],
        workers: vec![Worker::Idle; cfg.workers],
        served: 0,
        absorbed: 0,
        retrainer_done: false,
        shutdown: false,
    };

    let respond = |n: &mut World, r: u8, ex: &mut Explorer<World>, what: &str| {
        let count = &mut n.responses[usize::from(r)];
        *count = (*count + 1).min(2);
        if *count > 1 {
            ex.emit(format!("duplicate response for request id {r}: the client hears from the server twice ({what})"));
        }
    };

    let successors = |s: &World, ex: &mut Explorer<World>| {
        let mut next = Vec::new();
        // Readers admit each sent request, or shed it with `Busy`.
        for r in (0..s.unsent.len()).filter(|&r| s.unsent[r]) {
            let mut n = s.clone();
            n.unsent[r] = false;
            if let Err(id) = n.core.admit(u8::try_from(r).expect("request id fits u8")) {
                respond(&mut n, id, ex, "a second busy after shedding");
                (act.shed)(&mut n, id);
            }
            next.push(n);
        }
        // Workers take, serve and respond, then offer the served units.
        for w in 0..s.workers.len() {
            let mut n = s.clone();
            n.workers[w] = match s.workers[w] {
                Worker::Idle => match n.core.take_job() {
                    Take::Item(r) => Worker::Serving(r),
                    Take::Wait => continue,
                    Take::Closed => {
                        n.core.worker_exit();
                        Worker::Exited
                    }
                },
                Worker::Serving(r) => {
                    n.served += units;
                    respond(&mut n, r, ex, "a batch after an earlier response");
                    Worker::Offering(units)
                }
                Worker::Offering(o) if n.core.offer(o).is_ok() => Worker::Idle,
                Worker::Offering(_) | Worker::Exited => continue,
            };
            next.push(n);
        }
        // The retrainer absorbs until the core says the drain is over (a
        // wait, or a take after that, changes nothing).
        let mut n = s.clone();
        match n.core.take_observation() {
            Take::Item(o) => n.absorbed += o,
            Take::Closed => n.retrainer_done = true,
            Take::Wait => {}
        }
        if n != *s {
            next.push(n);
        }
        // Shutdown, once the readers are joined: every request was sent.
        if !s.shutdown && !s.unsent.contains(&true) {
            let mut n = s.clone();
            (act.close)(&mut n.core);
            n.shutdown = true;
            next.push(n);
        }
        next
    };
    let terminal = |s: &World, ex: &mut Explorer<World>| {
        for (r, &count) in s.responses.iter().enumerate() {
            if count == 0 {
                ex.emit(format!("orphaned request id {r}: the client never hears back"));
            }
        }
        if s.absorbed != s.served {
            ex.emit(format!(
                "drain lost records: the retrainer absorbed {} of {} served units at shutdown",
                s.absorbed, s.served
            ));
        }
        if !s.retrainer_done || s.workers.iter().any(|&w| w != Worker::Exited) {
            ex.emit("shutdown stalled: a worker or the retrainer never saw the core close".to_string());
        }
    };

    let mut ex = Explorer::new("wts-serve");
    ex.run(init, &successors, &terminal);
    ex.report("wts-serve")
}

#[cfg(test)]
mod tests {
    use super::*;
    use wts_verify::render;

    fn fires(report: &ProtoReport, diagnostic: &str) -> bool {
        report.diagnostics.iter().any(|d| d.message.contains(diagnostic))
    }

    #[test]
    fn the_core_sheds_at_depth_and_closes_only_when_drained() {
        let mut core: ServeCore<u8, u8> = ServeCore::new(1, 1);
        assert_eq!(core.admit(1), Ok(()));
        assert_eq!(core.admit(2), Err(2), "a full job FIFO sheds");
        assert_eq!(core.offer(7), Ok(()));
        assert_eq!(core.offer(8), Err(8), "a full observation FIFO hands the batch back");
        core.close();
        assert_eq!(core.admit(3), Err(3), "a closed core admits nothing");
        assert_eq!(core.take_job(), Take::Item(1), "admitted jobs drain after close");
        assert_eq!(core.take_job(), Take::Closed);
        assert_eq!(core.take_observation(), Take::Item(7));
        assert_eq!(core.take_observation(), Take::Wait, "a live worker may still offer");
        core.worker_exit();
        assert_eq!(core.take_observation(), Take::Closed);
    }

    #[test]
    fn serve_protocol_checks_clean_over_the_core() {
        let report = check_serve_protocol(ServeProtoConfig::default());
        assert!(report.is_clean(), "{}", render(&report.diagnostics));
        assert!(report.states > 100, "exhaustive walk should visit many states, saw {}", report.states);
    }

    /// Perturbation of the shed: the server keeps a shed request and
    /// admits it again later, so its client hears `Busy` and then a batch.
    #[test]
    fn a_shed_request_readmitted_later_duplicates_its_response() {
        let readmit = Actions { shed: |w, id| w.unsent[usize::from(id)] = true, ..FAITHFUL };
        let report = explore(ServeProtoConfig::default(), &readmit);
        assert!(fires(&report, "duplicate response"), "{}", render(&report.diagnostics));
    }

    /// Perturbation of the close: shutdown discards the observations still
    /// queued for the retrainer.
    #[test]
    fn a_close_that_drops_pending_observations_loses_the_drain() {
        let lossy = Actions {
            close: |core| {
                core.close();
                while let Take::Item(_) = core.take_observation() {}
            },
            ..FAITHFUL
        };
        let report = explore(ServeProtoConfig::default(), &lossy);
        assert!(fires(&report, "drain lost records"), "{}", render(&report.diagnostics));
        assert!(!fires(&report, "duplicate response"), "{}", render(&report.diagnostics));
    }
}
