//! Process-level resource readings from `/proc`: CPU time (user plus
//! system, all threads) and the resident-set high-water mark, for this
//! process or for a child such as the daemon.

use std::time::Duration;

/// Clock ticks per second of the `/proc/<pid>/stat` CPU fields
/// (`USER_HZ`, fixed at 100 in the Linux user-space ABI).
const TICKS_PER_SECOND: u64 = 100;

/// User plus system CPU time consumed so far by process `pid`
/// (`"self"` for this process).
pub fn cpu_time(pid: &str) -> Option<Duration> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = &stat[stat.rfind(')')? + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(Duration::from_millis(
        (utime + stime) * 1000 / TICKS_PER_SECOND,
    ))
}

/// Peak resident set size in bytes of process `pid` (`VmHWM`).
pub fn peak_rss_bytes(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_readings_are_available() {
        let busy = std::time::Instant::now();
        let mut x = 0u64;
        while busy.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_time("self").unwrap() > Duration::ZERO);
        assert!(peak_rss_bytes("self").unwrap() > 0);
        assert!(cpu_time("no-such-pid").is_none());
    }
}
