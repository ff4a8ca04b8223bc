//! Helpers shared by the engine's test binaries.

/// Masks the wall-clock fields of a reply stream: every `…us=` and `qps=`
/// value, every `trace=` value that names a trace id (`explain` replies,
/// flight records), and the `…us` latency of the `stats` route counters
/// (`fd=1/1c/0us`).  The `trace on`/`trace off` acknowledgement,
/// `ok trace=1` or `ok trace=0`, keeps its value.  Everything else is
/// compared byte for byte.
pub fn mask_clock(replies: &str) -> String {
    let token = |token: &str, names_ids: bool| match token.split_once('=') {
        Some((key, _)) if key.ends_with("us") || key == "qps" || (key == "trace" && names_ids) => {
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
        .map(|line| {
            let names_ids = !line.starts_with("ok trace=");
            line.split(' ')
                .map(|t| token(t, names_ids))
                .collect::<Vec<_>>()
                .join(" ")
                + "\n"
        })
        .collect()
}
