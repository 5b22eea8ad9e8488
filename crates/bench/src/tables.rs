//! Console table formatting and result persistence.

use crate::json::{self, Json};
use std::path::PathBuf;

/// Prints a header line for an experiment.
pub fn heading(id: &str, caption: &str) {
    println!();
    println!("=== {id}: {caption} ===");
    println!();
}

/// Formats a measured-vs-paper pair, flagging deviations.
pub fn cell(measured: f64, paper: f64, digits: usize) -> String {
    format!("{measured:.digits$} (paper {paper:.digits$})")
}

/// Writes an experiment result as JSON under `results/`.
///
/// Best-effort: failures to create the directory or file are reported to
/// stderr but do not abort the experiment.
pub fn save_json<T: Json>(id: &str, value: &T) {
    let dir = PathBuf::from("results");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: could not create results dir: {e}");
        return;
    }
    let path = dir.join(format!("{id}.json"));
    match json::pretty(value) {
        Ok(json) => {
            if let Err(e) = std::fs::write(&path, json) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else {
                println!("[saved {}]", path.display());
            }
        }
        Err(json::NonFinite(x)) => eprintln!("warning: {id} not saved: non-finite float {x}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_formats_both_numbers() {
        let s = cell(1.234, 1.2, 2);
        assert!(s.contains("1.23") && s.contains("1.20"));
    }
}
