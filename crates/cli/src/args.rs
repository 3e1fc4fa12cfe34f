//! Flag parsing for the `strudel` CLI.

use std::path::PathBuf;
use std::time::Duration;
use strudel::Limits;

/// Parsed command options. Every command uses a subset.
#[derive(Debug, Default)]
pub struct Options {
    /// `--corpus DIR` — annotated corpus directory.
    pub corpus: Option<PathBuf>,
    /// `--model PATH` — serialized model.
    pub model: Option<PathBuf>,
    /// `--out PATH` — output file or directory.
    pub out: Option<PathBuf>,
    /// `--dataset NAME` — synthetic dataset name.
    pub dataset: Option<String>,
    /// `--files N`.
    pub files: usize,
    /// `--seed K`.
    pub seed: u64,
    /// `--scale S`.
    pub scale: f64,
    /// `--trees N`.
    pub trees: usize,
    /// `--threads N` — batch worker threads (0 = available parallelism).
    pub threads: usize,
    /// `--cells` — also print per-cell predictions.
    pub cells: bool,
    /// `--json` — print detection results as canonical structure JSON.
    pub json: bool,
    /// `--host H` — serve bind host.
    pub host: String,
    /// `--port N` — serve bind port (0 picks an ephemeral port).
    pub port: u16,
    /// `--conns N` (alias `--queue`) — serve per-shard connection
    /// budget; overflow is shed with 503.
    pub conns: usize,
    /// `--cache N` — serve result-cache capacity (0 disables).
    pub cache: usize,
    /// `--rps F` — loadtest target arrival rate (0 = saturation).
    pub rps: f64,
    /// `--connections N` — loadtest concurrent client connections.
    pub connections: usize,
    /// `--duration-ms N` — loadtest measurement window.
    pub duration_ms: u64,
    /// `--mode keepalive|close` — loadtest connection mode.
    pub mode: String,
    /// `--path P` — loadtest request path.
    pub path: String,
    /// `--max-bytes N` — override the per-file input size limit.
    pub max_bytes: Option<u64>,
    /// `--max-rows N` — override the parsed-row limit.
    pub max_rows: Option<u64>,
    /// `--max-cells N` — override the padded-grid cell limit.
    pub max_cells: Option<u64>,
    /// `--max-file-ms N` — override the per-file wall-clock budget.
    pub max_file_ms: Option<u64>,
    /// `--no-limits` — disable all input limits (trusted input only).
    pub no_limits: bool,
    /// `--stream` — classify through the bounded-memory streaming path.
    pub stream: bool,
    /// `--window-rows N` — streaming window row cap.
    pub window_rows: Option<usize>,
    /// `--window-bytes N` — streaming window byte cap.
    pub window_bytes: Option<usize>,
    /// `--max-total-bytes N` — whole-stream byte cap (streaming only;
    /// `--max-bytes` caps each window there).
    pub max_total_bytes: Option<u64>,
    /// `--table N` — select one table of a packed container.
    pub table: Option<usize>,
    /// `--column NAME` — select one column of a packed container.
    pub column: Option<String>,
    /// Positional arguments (input files).
    pub inputs: Vec<PathBuf>,
}

impl Options {
    /// Parse the remaining command line after the subcommand.
    pub fn parse<I: Iterator<Item = String>>(mut argv: I) -> Result<Options, String> {
        let mut o = Options {
            files: 40,
            seed: 42,
            scale: 0.3,
            trees: 50,
            host: "127.0.0.1".to_string(),
            port: 8080,
            conns: 256,
            cache: 256,
            rps: 0.0,
            connections: 8,
            duration_ms: 5000,
            mode: "keepalive".to_string(),
            path: "/classify".to_string(),
            ..Options::default()
        };
        while let Some(flag) = argv.next() {
            let mut value = |name: &str| -> Result<String, String> {
                argv.next()
                    .ok_or_else(|| format!("flag {name} requires a value"))
            };
            match flag.as_str() {
                "--corpus" => o.corpus = Some(PathBuf::from(value("--corpus")?)),
                "--model" => o.model = Some(PathBuf::from(value("--model")?)),
                "--out" => o.out = Some(PathBuf::from(value("--out")?)),
                "--dataset" => o.dataset = Some(value("--dataset")?),
                "--files" => o.files = value("--files")?.parse().map_err(|_| "--files: integer")?,
                "--seed" => o.seed = value("--seed")?.parse().map_err(|_| "--seed: integer")?,
                "--scale" => o.scale = value("--scale")?.parse().map_err(|_| "--scale: float")?,
                "--trees" => o.trees = value("--trees")?.parse().map_err(|_| "--trees: integer")?,
                "--threads" => {
                    o.threads = value("--threads")?
                        .parse()
                        .map_err(|_| "--threads: integer")?
                }
                "--cells" => o.cells = true,
                "--json" => o.json = true,
                "--host" => o.host = value("--host")?,
                "--port" => o.port = value("--port")?.parse().map_err(|_| "--port: integer")?,
                // `--queue` survives as an alias from the admission-queue
                // era; the budget is per-shard connections now.
                "--conns" | "--queue" => {
                    o.conns = value("--conns")?.parse().map_err(|_| "--conns: integer")?
                }
                "--cache" => o.cache = value("--cache")?.parse().map_err(|_| "--cache: integer")?,
                "--rps" => o.rps = value("--rps")?.parse().map_err(|_| "--rps: number")?,
                "--connections" => {
                    o.connections = value("--connections")?
                        .parse()
                        .map_err(|_| "--connections: integer")?
                }
                "--duration-ms" => {
                    o.duration_ms = value("--duration-ms")?
                        .parse()
                        .map_err(|_| "--duration-ms: integer")?
                }
                "--mode" => {
                    o.mode = value("--mode")?;
                    if o.mode != "keepalive" && o.mode != "close" {
                        return Err(format!(
                            "--mode must be keepalive or close, got {:?}",
                            o.mode
                        ));
                    }
                }
                "--path" => o.path = value("--path")?,
                "--max-bytes" => {
                    o.max_bytes = Some(
                        value("--max-bytes")?
                            .parse()
                            .map_err(|_| "--max-bytes: integer")?,
                    )
                }
                "--max-rows" => {
                    o.max_rows = Some(
                        value("--max-rows")?
                            .parse()
                            .map_err(|_| "--max-rows: integer")?,
                    )
                }
                "--max-cells" => {
                    o.max_cells = Some(
                        value("--max-cells")?
                            .parse()
                            .map_err(|_| "--max-cells: integer")?,
                    )
                }
                "--max-file-ms" => {
                    o.max_file_ms = Some(
                        value("--max-file-ms")?
                            .parse()
                            .map_err(|_| "--max-file-ms: integer")?,
                    )
                }
                "--no-limits" => o.no_limits = true,
                "--stream" => o.stream = true,
                "--window-rows" => {
                    o.window_rows = Some(
                        value("--window-rows")?
                            .parse()
                            .map_err(|_| "--window-rows: integer")?,
                    )
                }
                "--window-bytes" => {
                    o.window_bytes = Some(
                        value("--window-bytes")?
                            .parse()
                            .map_err(|_| "--window-bytes: integer")?,
                    )
                }
                "--max-total-bytes" => {
                    o.max_total_bytes = Some(
                        value("--max-total-bytes")?
                            .parse()
                            .map_err(|_| "--max-total-bytes: integer")?,
                    )
                }
                "--table" => {
                    o.table = Some(value("--table")?.parse().map_err(|_| "--table: integer")?)
                }
                "--column" => o.column = Some(value("--column")?),
                other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
                positional => o.inputs.push(PathBuf::from(positional)),
            }
        }
        Ok(o)
    }

    /// The input [`Limits`] these options describe: the standard limits,
    /// individually overridden by `--max-*` flags, or none at all under
    /// `--no-limits`.
    pub fn limits(&self) -> Limits {
        if self.no_limits {
            return Limits::unbounded();
        }
        let mut limits = Limits::standard();
        if let Some(n) = self.max_bytes {
            limits.max_input_bytes = Some(n);
        }
        if let Some(n) = self.max_rows {
            limits.max_rows = Some(n);
        }
        if let Some(n) = self.max_cells {
            limits.max_cells = Some(n);
        }
        if let Some(ms) = self.max_file_ms {
            limits.max_file_wall = Some(Duration::from_millis(ms));
        }
        limits
    }

    /// The streaming configuration these options describe: the default
    /// window geometry, overridden by `--window-*`, with [`limits`]
    /// (`--max-*` applying per window) and `--threads` threaded through.
    ///
    /// [`limits`]: Options::limits
    pub fn stream_config(&self) -> strudel::StreamConfig {
        let mut config = strudel::StreamConfig {
            limits: self.limits(),
            n_threads: self.threads,
            max_total_bytes: self.max_total_bytes,
            ..strudel::StreamConfig::default()
        };
        if let Some(n) = self.window_rows {
            config.window_rows = n;
        }
        if let Some(n) = self.window_bytes {
            config.window_bytes = n;
        }
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.files, 40);
        assert_eq!(o.trees, 50);
        assert!(o.inputs.is_empty());
    }

    #[test]
    fn flags_and_positionals() {
        let o = parse(&["--model", "m.bin", "file.csv", "--cells"]).unwrap();
        assert_eq!(o.model.unwrap(), PathBuf::from("m.bin"));
        assert_eq!(o.inputs, vec![PathBuf::from("file.csv")]);
        assert!(o.cells);
    }

    #[test]
    fn serve_flags() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.host, "127.0.0.1");
        assert_eq!(o.port, 8080);
        assert_eq!(o.conns, 256);
        assert_eq!(o.cache, 256);
        assert!(!o.json);
        let o = parse(&[
            "--host", "0.0.0.0", "--port", "0", "--conns", "8", "--cache", "0", "--json",
        ])
        .unwrap();
        assert_eq!(o.host, "0.0.0.0");
        assert_eq!(o.port, 0);
        assert_eq!(o.conns, 8);
        assert_eq!(o.cache, 0);
        assert!(o.json);
        // The admission-queue-era spelling still parses.
        assert_eq!(parse(&["--queue", "12"]).unwrap().conns, 12);
        assert!(parse(&["--port", "not-a-port"]).is_err());
    }

    #[test]
    fn loadtest_flags() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.rps, 0.0);
        assert_eq!(o.connections, 8);
        assert_eq!(o.duration_ms, 5000);
        assert_eq!(o.mode, "keepalive");
        assert_eq!(o.path, "/classify");
        let o = parse(&[
            "--rps",
            "500.5",
            "--connections",
            "64",
            "--duration-ms",
            "2000",
            "--mode",
            "close",
            "--path",
            "/healthz",
        ])
        .unwrap();
        assert_eq!(o.rps, 500.5);
        assert_eq!(o.connections, 64);
        assert_eq!(o.duration_ms, 2000);
        assert_eq!(o.mode, "close");
        assert_eq!(o.path, "/healthz");
        assert!(parse(&["--mode", "pipelined"]).is_err());
        assert!(parse(&["--rps", "fast"]).is_err());
    }

    #[test]
    fn threads_flag() {
        assert_eq!(parse(&[]).unwrap().threads, 0);
        assert_eq!(parse(&["--threads", "3"]).unwrap().threads, 3);
        assert!(parse(&["--threads", "many"]).is_err());
    }

    #[test]
    fn limit_flags_override_standard() {
        let o = parse(&[
            "--max-bytes",
            "1000",
            "--max-rows",
            "50",
            "--max-file-ms",
            "200",
        ])
        .unwrap();
        let limits = o.limits();
        assert_eq!(limits.max_input_bytes, Some(1000));
        assert_eq!(limits.max_rows, Some(50));
        assert_eq!(limits.max_file_wall, Some(Duration::from_millis(200)));
        // Untouched fields keep the standard values.
        assert_eq!(limits.max_cells, Limits::standard().max_cells);
    }

    #[test]
    fn no_limits_disables_everything() {
        let o = parse(&["--no-limits", "--max-bytes", "1000"]).unwrap();
        assert_eq!(o.limits(), Limits::unbounded());
    }

    #[test]
    fn stream_flags() {
        let o = parse(&[]).unwrap();
        assert!(!o.stream);
        let defaults = strudel::StreamConfig::default();
        assert_eq!(o.stream_config().window_rows, defaults.window_rows);
        assert_eq!(o.stream_config().window_bytes, defaults.window_bytes);

        let o = parse(&[
            "--stream",
            "--window-rows",
            "100",
            "--window-bytes",
            "4096",
            "--max-total-bytes",
            "9000",
            "--max-bytes",
            "2048",
            "--threads",
            "2",
        ])
        .unwrap();
        assert!(o.stream);
        let config = o.stream_config();
        assert_eq!(config.window_rows, 100);
        assert_eq!(config.window_bytes, 4096);
        assert_eq!(config.max_total_bytes, Some(9000));
        // --max-bytes stays the per-window cap in streaming mode.
        assert_eq!(config.limits.max_input_bytes, Some(2048));
        assert_eq!(config.n_threads, 2);
        assert!(parse(&["--window-rows", "lots"]).is_err());
    }

    #[test]
    fn pack_selection_flags() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.table, None);
        assert_eq!(o.column, None);
        let o = parse(&["--table", "2", "--column", "2019", "c.pack"]).unwrap();
        assert_eq!(o.table, Some(2));
        assert_eq!(o.column.as_deref(), Some("2019"));
        assert!(parse(&["--table", "minus one"]).is_err());
        assert!(parse(&["--column"]).is_err());
    }

    #[test]
    fn missing_value_rejected() {
        assert!(parse(&["--model"]).is_err());
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(parse(&["--bogus", "x"]).is_err());
    }
}
