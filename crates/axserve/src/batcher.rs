//! The dynamic micro-batcher core: coalescing admitted requests into
//! executable batches.
//!
//! This module is deliberately thread-free — it is the *policy* half of
//! the batcher (which requests group together, when a group flushes),
//! driven by the batcher thread in [`crate::server`]. Keeping it pure
//! makes the flush rules unit-testable without spawning a server.
//!
//! Grouping key: `(model, kernel, degraded, input shape)`. Everything in
//! one group runs as a single plan/scratch pass on one worker. A group
//! flushes when it reaches `max_batch` (full flush, returned by
//! [`Pending::admit`]) or when its oldest member has waited `linger`
//! ([`Pending::take_due`]) — the classic size-or-age policy — or, while
//! some worker is idle, at once, oldest group first
//! ([`Pending::take_oldest`]). Coalescing
//! never changes results: per-image execution is independent, so batched
//! responses stay bit-identical to unbatched ones (pinned by the
//! determinism proptests).

use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::error::ServeError;
use crate::pool::ModelId;
use crate::request::{Request, Response};

/// One admitted request, resolved to pool ids and carrying its reply
/// channel.
#[derive(Debug)]
pub(crate) struct Job {
    pub request: Request,
    pub model: ModelId,
    /// Index into the server's kernel table (after any degradation
    /// swap).
    pub kernel: usize,
    /// Whether the degradation policy rerouted this job to the exact
    /// kernel.
    pub degraded: bool,
    /// Whether a moving-target ensemble drew this job's kernel. Per-job
    /// metadata only — it never affects grouping, since the resolved
    /// kernel index already determines the numerics.
    pub sampled: bool,
    /// Re-executions so far (bisection and singleton retries).
    pub retries: u32,
    pub reply: mpsc::Sender<Result<Response, ServeError>>,
}

/// A flushed group, ready for one worker to execute in one pass.
#[derive(Debug)]
pub(crate) struct Batch {
    pub model: ModelId,
    pub kernel: usize,
    pub degraded: bool,
    pub shape: Vec<usize>,
    pub jobs: Vec<Job>,
}

#[derive(Debug)]
struct Group {
    model: ModelId,
    kernel: usize,
    degraded: bool,
    shape: Vec<usize>,
    /// When the group's *oldest* member was admitted — the age the
    /// linger policy measures.
    since: Instant,
    jobs: Vec<Job>,
}

impl Group {
    fn into_batch(self) -> Batch {
        Batch {
            model: self.model,
            kernel: self.kernel,
            degraded: self.degraded,
            shape: self.shape,
            jobs: self.jobs,
        }
    }
}

/// The set of not-yet-flushed groups.
#[derive(Debug)]
pub(crate) struct Pending {
    max_batch: usize,
    groups: Vec<Group>,
    total: usize,
}

impl Pending {
    /// An empty pending set flushing groups at `max_batch` requests.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch == 0`.
    pub fn new(max_batch: usize) -> Self {
        assert!(max_batch > 0, "max_batch must be >= 1");
        Pending {
            max_batch,
            groups: Vec::new(),
            total: 0,
        }
    }

    /// Requests currently pending across all groups.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Whether no request is pending.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Adds a job to its group (creating the group at `now`). Returns
    /// the group as a full batch if it just reached `max_batch`.
    pub fn admit(&mut self, job: Job, now: Instant) -> Option<Batch> {
        let shape = job.request.image.dims();
        let pos = self.groups.iter().position(|g| {
            g.model == job.model
                && g.kernel == job.kernel
                && g.degraded == job.degraded
                && g.shape == shape
        });
        let pos = match pos {
            Some(p) => p,
            None => {
                self.groups.push(Group {
                    model: job.model,
                    kernel: job.kernel,
                    degraded: job.degraded,
                    shape: shape.to_vec(),
                    since: now,
                    jobs: Vec::with_capacity(self.max_batch),
                });
                self.groups.len() - 1
            }
        };
        self.groups[pos].jobs.push(job);
        self.total += 1;
        if self.groups[pos].jobs.len() >= self.max_batch {
            let g = self.groups.swap_remove(pos);
            self.total -= g.jobs.len();
            Some(g.into_batch())
        } else {
            None
        }
    }

    /// Removes and returns every group whose oldest member has waited at
    /// least `linger` as of `now`.
    pub fn take_due(&mut self, now: Instant, linger: Duration) -> Vec<Batch> {
        let mut due = Vec::new();
        let mut i = 0;
        while i < self.groups.len() {
            if now.saturating_duration_since(self.groups[i].since) >= linger {
                let g = self.groups.swap_remove(i);
                self.total -= g.jobs.len();
                due.push(g.into_batch());
            } else {
                i += 1;
            }
        }
        due
    }

    /// Removes and returns the group whose oldest member has waited
    /// longest (`None` when nothing is pending).
    pub fn take_oldest(&mut self) -> Option<Batch> {
        let pos = (0..self.groups.len()).min_by_key(|&i| self.groups[i].since)?;
        let g = self.groups.swap_remove(pos);
        self.total -= g.jobs.len();
        Some(g.into_batch())
    }

    /// The earliest instant at which some group becomes due under
    /// `linger` (`None` when nothing is pending).
    pub fn next_due(&self, linger: Duration) -> Option<Instant> {
        self.groups.iter().map(|g| g.since + linger).min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axtensor::Tensor;

    fn job(model: usize, kernel: usize, shape: &[usize]) -> Job {
        let (reply, _rx) = mpsc::channel();
        // Tests hold only the sender; replies are not exercised here.
        std::mem::forget(_rx);
        Job {
            request: Request::new("m", "k", Tensor::zeros(shape)),
            model: ModelId(model),
            kernel,
            degraded: false,
            sampled: false,
            retries: 0,
            reply,
        }
    }

    #[test]
    fn groups_by_model_kernel_and_shape() {
        let mut p = Pending::new(8);
        let now = Instant::now();
        assert!(p.admit(job(0, 0, &[4]), now).is_none());
        assert!(p.admit(job(0, 1, &[4]), now).is_none());
        assert!(p.admit(job(1, 0, &[4]), now).is_none());
        assert!(p.admit(job(0, 0, &[8]), now).is_none());
        assert_eq!(p.total(), 4);
        // Four distinct groups: nothing coalesced across keys.
        assert_eq!(std::iter::from_fn(|| p.take_oldest()).count(), 4);
        assert!(p.is_empty());
    }

    #[test]
    fn full_group_flushes_immediately() {
        let mut p = Pending::new(3);
        let now = Instant::now();
        assert!(p.admit(job(0, 0, &[4]), now).is_none());
        assert!(p.admit(job(0, 0, &[4]), now).is_none());
        let full = p
            .admit(job(0, 0, &[4]), now)
            .expect("third fills the batch");
        assert_eq!(full.jobs.len(), 3);
        assert_eq!(full.shape, vec![4]);
        assert!(p.is_empty(), "flushed group must leave pending");
    }

    #[test]
    fn linger_flushes_aged_groups_only() {
        let mut p = Pending::new(8);
        let t0 = Instant::now();
        let linger = Duration::from_millis(10);
        p.admit(job(0, 0, &[4]), t0);
        p.admit(job(0, 1, &[4]), t0 + Duration::from_millis(8));
        // At t0+10ms only the first group is due.
        let due = p.take_due(t0 + linger, linger);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].kernel, 0);
        assert_eq!(p.total(), 1);
        // next_due points at the younger group's expiry.
        assert_eq!(
            p.next_due(linger),
            Some(t0 + Duration::from_millis(8) + linger)
        );
        let rest = p.take_due(t0 + Duration::from_millis(18), linger);
        assert_eq!(rest.len(), 1);
        assert!(p.next_due(linger).is_none());
    }

    #[test]
    fn group_age_is_its_oldest_member() {
        let mut p = Pending::new(8);
        let t0 = Instant::now();
        let linger = Duration::from_millis(10);
        p.admit(job(0, 0, &[4]), t0);
        // A later arrival does not reset the clock.
        p.admit(job(0, 0, &[4]), t0 + Duration::from_millis(9));
        let due = p.take_due(t0 + linger, linger);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].jobs.len(), 2);
    }

    #[test]
    fn take_oldest_goes_by_the_oldest_member() {
        let mut p = Pending::new(8);
        let t0 = Instant::now();
        p.admit(job(0, 1, &[4]), t0 + Duration::from_millis(2));
        p.admit(job(0, 0, &[4]), t0);
        p.admit(job(0, 2, &[4]), t0 + Duration::from_millis(1));
        p.admit(job(0, 1, &[4]), t0 + Duration::from_millis(3));
        let order: Vec<(usize, usize)> = std::iter::from_fn(|| p.take_oldest())
            .map(|b| (b.kernel, b.jobs.len()))
            .collect();
        assert_eq!(order, vec![(0, 1), (2, 1), (1, 2)]);
        assert!(p.is_empty());
    }

    #[test]
    #[should_panic(expected = "max_batch")]
    fn zero_max_batch_is_rejected() {
        let _ = Pending::new(0);
    }
}
