//! The host's CPU steal time: how long the hypervisor held this machine's
//! virtual CPUs runnable but not running. On a shared host it marks the
//! stretches of a run that measured the neighbours, not the program.

/// Cumulative steal time of all CPUs, in clock ticks: the eighth value of
/// the `cpu` line of `/proc/stat`. 0 where the kernel does not report it,
/// so every window of a run then counts as quiet.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| parse_steal(&stat))
        .unwrap_or(0)
}

/// The steal field of `/proc/stat` text.
fn parse_steal(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_is_the_eighth_value_of_the_cpu_line() {
        let stat = "cpu  1022372 0 198804 1383899 1637 0 65156 57342 0 0\n\
                    cpu0 513019 0 99300 690023 717 0 32616 28533 0 0\n";
        assert_eq!(parse_steal(stat), Some(57342));
        // Kernels before 2.6.11 stop after softirq: no steal field.
        assert_eq!(parse_steal("cpu  1 2 3 4 5 6 7\n"), None);
        assert_eq!(parse_steal(""), None);
    }
}
