//! Where the threads run. Left to the scheduler, a fleet's 24 threads and
//! the client lane migrate between the cores, the same op costs 10–30 %
//! more and a fleet keeps its luck for life (README, "Noise"), so the
//! harness fixes the placement: daemon `i` on the `i mod n`-th of the `n`
//! CPUs this process may use, the client lane on the first. Both cores
//! stay in use, so work that overlaps across daemons can still show.

extern "C" {
    /// glibc's wrapper: `pid` 0 is the calling thread.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, ascending, from the
/// `Cpus_allowed_list` line of `/proc/thread-self/status` (`0-1`, `0,2-3`).
pub fn allowed_cpus() -> Result<Vec<usize>, String> {
    let status = std::fs::read_to_string("/proc/thread-self/status")
        .map_err(|e| format!("/proc/thread-self/status: {e}"))?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .ok_or("no Cpus_allowed_list in /proc/thread-self/status")?;
    parse_cpu_list(list.trim())
}

fn parse_cpu_list(list: &str) -> Result<Vec<usize>, String> {
    let number = |s: &str| {
        s.parse::<usize>()
            .map_err(|_| format!("bad cpu list {list:?}"))
    };
    let mut cpus = Vec::new();
    for part in list.split(',') {
        let (first, last) = match part.split_once('-') {
            Some((a, b)) => (number(a)?, number(b)?),
            None => (number(part)?, number(part)?),
        };
        cpus.extend(first..=last);
    }
    if cpus.is_empty() {
        return Err(format!("bad cpu list {list:?}"));
    }
    Ok(cpus)
}

/// Restrict the calling thread to `cpus`. Threads it spawns from now on
/// inherit the restriction, which is how a daemon's threads get theirs.
pub fn run_on(cpus: &[usize]) -> Result<(), String> {
    let mut mask = 0u64;
    for &cpu in cpus {
        if cpu >= 64 {
            return Err(format!("cpu {cpu} does not fit the 64-bit affinity mask"));
        }
        mask |= 1 << cpu;
    }
    // SAFETY: `mask` lives across the call and the size passed is its
    // size; the kernel only reads it.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity({cpus:?}): {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse_ranges_and_singles() {
        assert_eq!(parse_cpu_list("0-1"), Ok(vec![0, 1]));
        assert_eq!(parse_cpu_list("0,2-3"), Ok(vec![0, 2, 3]));
        assert_eq!(parse_cpu_list("5"), Ok(vec![5]));
        assert!(parse_cpu_list("").is_err());
        assert!(parse_cpu_list("a-b").is_err());
    }
}
