//! Host stamp and resource guard.
//!
//! Every result records how many cores the run could use, and a workload
//! that asks for more solver threads or worker processes than that is
//! refused: oversubscribed runs measure the scheduler, not the solver.

use std::thread::available_parallelism;

/// What the benchmark knows about the machine it runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Host {
    /// `std::thread::available_parallelism` (honours affinity and quotas).
    pub available_parallelism: usize,
    /// Online processors listed in `/proc/cpuinfo` (falls back to
    /// `available_parallelism` where that file does not exist).
    pub cores: usize,
}

impl Host {
    /// Probes the current machine.
    #[must_use]
    pub fn probe() -> Self {
        let available_parallelism = available_parallelism().map_or(1, usize::from);
        let cores = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
            .filter(|&c| c > 0)
            .unwrap_or(available_parallelism);
        Host {
            available_parallelism,
            cores,
        }
    }

    /// The cores a run may use: the smaller of the two counts.
    #[must_use]
    pub fn usable(&self) -> usize {
        self.available_parallelism.min(self.cores)
    }

    /// Refuses a run that asks for more solver threads or worker processes
    /// than the host can run at once.
    ///
    /// # Errors
    ///
    /// A message naming the request and the host's limit.
    pub fn admit(&self, solver_threads: usize, worker_processes: usize) -> Result<(), String> {
        let limit = self.usable();
        if solver_threads > limit || worker_processes > limit {
            return Err(format!(
                "workload asks for {solver_threads} solver thread(s) and {worker_processes} \
                 worker process(es), but this host runs {limit} at once \
                 (available_parallelism {}, cores {})",
                self.available_parallelism, self.cores
            ));
        }
        Ok(())
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB; `None` where
/// `/proc/self/status` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_refuses_oversubscription() {
        let host = Host {
            available_parallelism: 2,
            cores: 2,
        };
        assert!(host.admit(1, 2).is_ok());
        assert!(host.admit(4, 0).unwrap_err().contains("4 solver thread"));
        assert!(host.admit(1, 3).is_err());
        let quota = Host {
            available_parallelism: 1,
            cores: 8,
        };
        assert!(quota.admit(1, 2).is_err());
    }

    #[test]
    fn probe_sees_at_least_one_core() {
        let host = Host::probe();
        assert!(host.usable() >= 1);
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().unwrap() > 0.0);
        }
    }
}
