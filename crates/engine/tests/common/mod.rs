//! Helpers shared by the engine's test binaries.

/// Masks the wall-clock fields of a reply stream: every `…us=`, `qps=` and
/// `trace=` value, and the `…us` latency of the `stats` route counters
/// (`fd=1/1c/0us`).  Everything else is compared byte for byte.
pub fn mask_clock(replies: &str) -> String {
    let token = |token: &str| match token.split_once('=') {
        Some((key, _)) if key.ends_with("us") || key == "qps" || key == "trace" => {
            format!("{key}=*")
        }
        Some((key, value)) => {
            let parts: Vec<&str> = value
                .split('/')
                .map(|part| if part.ends_with("us") { "*us" } else { part })
                .collect();
            format!("{key}={}", parts.join("/"))
        }
        None => token.to_string(),
    };
    replies
        .lines()
        .map(|line| line.split(' ').map(token).collect::<Vec<_>>().join(" ") + "\n")
        .collect()
}
