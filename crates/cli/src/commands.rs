//! Implementations of the `strudel` subcommands.

use crate::args::Options;
use crate::{existing, fast_config, model_from, print_evaluation, CliError};
use std::fs;
use std::path::Path;
use strudel::{Structure, Strudel};
use strudel_dialect::{write_delimited, Dialect};

/// `strudel synth --dataset NAME --out DIR [--files N --seed K --scale S]`
pub fn synth(options: &Options) -> Result<(), CliError> {
    let dataset = options
        .dataset
        .as_deref()
        .ok_or("synth requires --dataset (SAUS, CIUS, DeEx, GovUK, Mendeley, or Troy)")?;
    let out = options.out.as_deref().ok_or("synth requires --out DIR")?;
    let known = ["govuk", "saus", "cius", "deex", "mendeley", "troy"];
    if !known.contains(&dataset.to_ascii_lowercase().as_str()) {
        return Err(format!("unknown dataset {dataset:?}; known: {known:?}").into());
    }
    let corpus = strudel_datagen::by_name(
        dataset,
        &strudel_datagen::GeneratorConfig {
            n_files: options.files,
            seed: options.seed,
            scale: options.scale,
        },
    );
    strudel_corpus::save_corpus(out, &corpus).map_err(|e| e.to_string())?;
    let stats = corpus.stats();
    println!(
        "wrote {} annotated files ({} lines, {} cells) to {}",
        stats.n_files,
        stats.n_lines,
        stats.n_cells,
        out.display()
    );
    Ok(())
}

/// `strudel train --corpus DIR --out MODEL [--trees N --seed K]`
pub fn train(options: &Options) -> Result<(), CliError> {
    let corpus_dir = options
        .corpus
        .as_deref()
        .ok_or("train requires --corpus DIR")?;
    let out = options.out.as_deref().ok_or("train requires --out MODEL")?;
    let corpus_dir = existing(corpus_dir, "corpus directory")?;
    let corpus = strudel_corpus::load_corpus(&corpus_dir, "train").map_err(|e| e.to_string())?;
    if corpus.files.is_empty() {
        return Err(format!(
            "no annotated files (*.csv with *.csv.labels) in {}",
            corpus_dir.display()
        )
        .into());
    }
    eprintln!(
        "training on {} files / {} labeled lines ...",
        corpus.files.len(),
        corpus.stats().n_lines
    );
    let model = Strudel::fit(&corpus.files, &fast_config(options.trees, options.seed));
    model.save(out)?;
    let size = fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    println!("model saved to {} ({} KiB)", out.display(), size / 1024);
    Ok(())
}

/// Read one input file as bytes and run the guarded pipeline on it
/// under the `--max-*` limits: the shared front half of `detect`,
/// `extract` and `segments`. Errors carry the file name.
fn detect_file(options: &Options, input: &Path) -> Result<Structure, CliError> {
    let input = existing(input, "input file")?;
    let name = input.display().to_string();
    let bytes = fs::read(&input).map_err(|e| strudel::StrudelError::io(&e, Some(&name)))?;
    let model = model_from(options)?;
    model
        .try_detect_structure_bytes(&bytes, &options.limits())
        .map_err(|e| e.with_file(name).into())
}

/// `strudel detect [--model MODEL] FILE [--cells]`
pub fn detect(options: &Options) -> Result<(), CliError> {
    if options.stream {
        return detect_stream(options);
    }
    let input = options
        .inputs
        .first()
        .ok_or("detect requires an input FILE")?;
    let structure = detect_file(options, input)?;

    if options.json {
        // The canonical machine-readable rendering — byte-identical to
        // what `strudel serve` returns for the same bytes.
        println!("{}", structure.to_json());
        return Ok(());
    }

    println!("dialect: {}", structure.dialect);
    for (r, class) in structure.lines.iter().enumerate() {
        let label = class.map_or("(empty)", |c| c.name());
        let preview: Vec<&str> = (0..structure.table.n_cols())
            .map(|c| structure.table.cell(r, c).raw())
            .collect();
        let mut joined = preview.join(" | ");
        if joined.chars().count() > 72 {
            joined = joined.chars().take(69).collect::<String>() + "...";
        }
        println!("{r:>4}  {label:<10} {joined}");
    }
    if options.cells {
        println!("\ncells differing from their line class:");
        let mut any = false;
        for cell in &structure.cells {
            if Some(cell.class) != structure.lines[cell.row] {
                any = true;
                println!(
                    "  ({}, {}) {:<10} {:?}",
                    cell.row,
                    cell.col,
                    cell.class.name(),
                    structure.table.cell(cell.row, cell.col).raw()
                );
            }
        }
        if !any {
            println!("  (none)");
        }
    }
    Ok(())
}

/// `strudel detect --stream`: the input is read in fixed-size chunks
/// through the bounded-memory [`strudel::StreamClassifier`]; line
/// classes print incrementally as each window closes. `--json` buffers
/// the emitted windows to assemble the canonical document (the output
/// itself is file-sized, so that buffering changes nothing
/// asymptotically) — on any input that fits in one window it is
/// byte-identical to plain `detect --json`.
fn detect_stream(options: &Options) -> Result<(), CliError> {
    use std::io::Write;
    let input = options
        .inputs
        .first()
        .ok_or("detect requires an input FILE")?;
    let input = existing(input, "input file")?;
    let name = input.display().to_string();
    let mut file =
        fs::File::open(&input).map_err(|e| strudel::StrudelError::io(&e, Some(&name)))?;
    let model = model_from(options)?;

    let mut buffered: Vec<strudel::StreamWindow> = Vec::new();
    let mut differing: Vec<(usize, usize, &'static str, String)> = Vec::new();
    let mut dialect_printed = false;
    let mut on_window = |w: strudel::StreamWindow| {
        if options.json {
            buffered.push(w);
            return;
        }
        if !dialect_printed {
            println!("dialect: {}", w.structure.dialect);
            dialect_printed = true;
        }
        for (r, class) in w.structure.lines.iter().enumerate() {
            let label = class.map_or("(empty)", |c| c.name());
            let preview: Vec<&str> = (0..w.structure.table.n_cols())
                .map(|c| w.structure.table.cell(r, c).raw())
                .collect();
            let mut joined = preview.join(" | ");
            if joined.chars().count() > 72 {
                joined = joined.chars().take(69).collect::<String>() + "...";
            }
            println!("{:>4}  {label:<10} {joined}", w.first_row + r);
        }
        if options.cells {
            for cell in &w.structure.cells {
                if Some(cell.class) != w.structure.lines[cell.row] {
                    differing.push((
                        w.first_row + cell.row,
                        cell.col,
                        cell.class.name(),
                        w.structure.table.cell(cell.row, cell.col).raw().to_string(),
                    ));
                }
            }
        }
        std::io::stdout().flush().ok();
        // `w` is dropped here — non-JSON output stays O(window).
    };
    let mut timings = strudel::StageTimings::default();
    strudel::classify_reader(
        &model,
        &mut file,
        options.stream_config(),
        &mut timings,
        &mut on_window,
    )
    .map_err(|e| e.with_file(name))?;

    if options.json {
        println!("{}", strudel::stream_to_json(&buffered));
        return Ok(());
    }
    if options.cells {
        println!("\ncells differing from their line class:");
        if differing.is_empty() {
            println!("  (none)");
        }
        for (row, col, class, raw) in differing {
            println!("  ({row}, {col}) {class:<10} {raw:?}");
        }
    }
    Ok(())
}

/// `strudel extract [--model MODEL] FILE`
pub fn extract(options: &Options) -> Result<(), CliError> {
    let input = options
        .inputs
        .first()
        .ok_or("extract requires an input FILE")?;
    let structure = detect_file(options, input)?;

    let mut rows: Vec<Vec<String>> = structure.header_row().into_iter().collect();
    rows.extend(structure.data_rows());
    let out = write_delimited(&rows, &Dialect::rfc4180());
    match &options.out {
        Some(path) => {
            fs::write(path, &out).map_err(|e| e.to_string())?;
            eprintln!("clean table written to {}", path.display());
        }
        None => print!("{out}"),
    }
    Ok(())
}

/// `strudel segments [--model MODEL] FILE`
pub fn segments(options: &Options) -> Result<(), CliError> {
    let input = options
        .inputs
        .first()
        .ok_or("segments requires an input FILE")?;
    let structure = detect_file(options, input)?;
    let regions = structure.tables();
    println!("{} table region(s)", regions.len());
    for (i, region) in regions.iter().enumerate() {
        let caption = region
            .metadata_rows
            .first()
            .map(|&r| structure.table.cell(r, 0).raw().to_string());
        println!("region {i}:");
        if let Some(caption) = caption {
            println!("  caption: {caption:?}");
        }
        let span = |rows: &[usize]| match (rows.first(), rows.last()) {
            (Some(a), Some(b)) if a == b => format!("line {a}"),
            (Some(a), Some(b)) => format!("lines {a}-{b}"),
            _ => "-".to_string(),
        };
        println!("  metadata: {}", span(&region.metadata_rows));
        println!("  header:   {}", span(&region.header_rows));
        println!("  body:     {}", span(&region.body_rows));
        println!("  notes:    {}", span(&region.notes_rows));
    }
    Ok(())
}

/// `strudel batch [--model MODEL] [--threads N] [--out FILE] DIR|FILE...`
///
/// Runs the full pipeline over every input on a worker pool and prints a
/// JSON report (per-stage timings, per-file outcomes, throughput) to
/// stdout or `--out`. A directory input contributes its `*.csv` files in
/// name order. Per-file failures land in the report; the command itself
/// only fails when there is nothing to process.
pub fn batch(options: &Options) -> Result<(), CliError> {
    use strudel::batch::{
        detect_all, detect_all_streamed, peak_rss_bytes, BatchConfig, BatchInput,
    };
    if options.inputs.is_empty() {
        return Err("batch requires input files or a directory".into());
    }
    let mut paths = Vec::new();
    for input in &options.inputs {
        let input = existing(input, "input")?;
        if input.is_dir() {
            let mut entries: Vec<_> = fs::read_dir(&input)
                .map_err(|e| format!("reading {}: {e}", input.display()))?
                .filter_map(|e| e.ok())
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|ext| ext == "csv"))
                .collect();
            entries.sort();
            paths.extend(entries);
        } else {
            paths.push(input);
        }
    }
    if paths.is_empty() {
        return Err("no CSV files to process".into());
    }
    let model = model_from(options)?;
    let inputs: Vec<BatchInput> = paths.into_iter().map(BatchInput::Path).collect();
    let config = BatchConfig {
        n_threads: options.threads,
        limits: options.limits(),
    };
    let report = if options.stream {
        // Files are read and classified in chunks, windows dropped as
        // counted: per-worker peak memory is O(window), not O(file).
        let report = detect_all_streamed(&model, &inputs, &config, &options.stream_config());
        if let Some(rss) = peak_rss_bytes() {
            // Machine-parseable, for the bench script and the RSS guard.
            eprintln!("peak_rss_bytes: {rss}");
        }
        report
    } else {
        detect_all(&model, &inputs, &config).report
    };
    eprintln!(
        "processed {} files on {} thread(s): {} ok, {} failed, {:.1} files/s",
        report.outcomes.len(),
        report.n_threads,
        report.n_ok(),
        report.n_failed(),
        report.files_per_second(),
    );
    let json = report.to_json();
    match &options.out {
        Some(path) => {
            fs::write(path, &json).map_err(|e| e.to_string())?;
            eprintln!("report written to {}", path.display());
        }
        None => println!("{json}"),
    }
    Ok(())
}

/// `strudel serve [--model MODEL] [--host H --port N] [--threads N]
/// [--conns N] [--cache N]`
///
/// Runs the resident classification daemon: loads the model once, binds
/// the listener, prints the resolved address (machine-parseable, for
/// ephemeral ports), and serves until `POST /admin/shutdown`.
pub fn serve(options: &Options) -> Result<(), CliError> {
    use std::io::Write;
    use strudel_server::{Server, ServerConfig};
    let model = model_from(options)?;
    let config = ServerConfig {
        addr: format!("{}:{}", options.host, options.port),
        n_shards: options.threads,
        conns_per_shard: options.conns,
        cache_capacity: options.cache,
        limits: options.limits(),
        model_path: options.model.clone(),
        stream: options.stream_config(),
        ..ServerConfig::default()
    };
    let server = Server::bind(model, &config)
        .map_err(|e| CliError::Pipeline(strudel::StrudelError::io(&e, Some(&config.addr))))?;
    println!(
        "strudel serve listening on http://{} ({} shards, conns/shard {}, cache {})",
        server.local_addr(),
        server.n_shards(),
        options.conns,
        options.cache,
    );
    // The line above is the startup handshake for scripts (`--port 0`
    // prints the ephemeral port); make sure it is on the wire before
    // the shard loops take over.
    std::io::stdout().flush().ok();
    server.run();
    eprintln!("strudel serve: drained and shut down cleanly");
    Ok(())
}

/// `strudel loadtest --host H --port N [--path P] [--mode keepalive|close]
/// [--rps F] [--connections N] [--duration-ms N] [FILE]`
///
/// Open-loop load generator against a running daemon (the measurement
/// half of `scripts/bench_serve.sh`). `FILE` becomes the POST body
/// (e.g. a CSV for `/classify`); without it the request is a GET.
/// Prints one JSON object: the run configuration plus throughput and
/// p50/p90/p99/p999 latency (µs, measured from the *scheduled* arrival
/// in open-loop mode, so server queueing is not hidden).
pub fn loadtest(options: &Options) -> Result<(), CliError> {
    use strudel_server::loadtest::{run, LoadConfig};
    let body = match options.inputs.first() {
        Some(path) => {
            let path = existing(path, "request-body file")?;
            std::fs::read(&path)
                .map_err(|e| strudel::StrudelError::io(&e, Some(&path.display().to_string())))?
        }
        None => Vec::new(),
    };
    let config = LoadConfig {
        addr: format!("{}:{}", options.host, options.port),
        path: options.path.clone(),
        body,
        rps: options.rps,
        connections: options.connections,
        duration: std::time::Duration::from_millis(options.duration_ms),
        keep_alive: options.mode != "close",
    };
    let report = run(&config);
    let inner = report.to_json();
    println!(
        "{{\"mode\": \"{}\", \"path\": \"{}\", \"target_rps\": {}, \"connections\": {}, {}",
        if config.keep_alive {
            "keepalive"
        } else {
            "close"
        },
        config.path,
        config.rps,
        config.connections,
        inner.strip_prefix('{').unwrap_or(&inner),
    );
    Ok(())
}

/// `strudel pack [--model MODEL] FILE [--out CONTAINER]`
///
/// Streams the input through the bounded-memory classifier and writes a
/// structure-aware packed container: skeleton + per-column blocks, one
/// block group per stream window, O(window) peak memory. The default
/// output path is the input with `.pack` appended.
pub fn pack(options: &Options) -> Result<(), CliError> {
    let input = options
        .inputs
        .first()
        .ok_or("pack requires an input FILE")?;
    let input = existing(input, "input file")?;
    let name = input.display().to_string();
    let model = model_from(options)?;
    let mut file =
        fs::File::open(&input).map_err(|e| strudel::StrudelError::io(&e, Some(&name)))?;
    let mut timings = strudel::StageTimings::default();
    let packed =
        strudel_pack::pack_reader(&model, &mut file, options.stream_config(), &mut timings)
            .map_err(|e| e.with_file(name.clone()))?;
    let out = options
        .out
        .clone()
        .unwrap_or_else(|| std::path::PathBuf::from(format!("{name}.pack")));
    fs::write(&out, &packed.bytes)
        .map_err(|e| strudel::StrudelError::io(&e, Some(&out.display().to_string())))?;
    eprintln!(
        "packed {} ({} bytes) -> {} ({} bytes, {:.3}x): {} group(s), {} table(s), {} block(s)",
        name,
        packed.original.len,
        out.display(),
        packed.bytes.len(),
        packed.ratio(),
        packed.n_groups,
        packed.n_tables,
        packed.n_blocks,
    );
    Ok(())
}

/// `strudel unpack CONTAINER [--out FILE] [--table N] [--column NAME]`
///
/// Without selectors, reconstructs the original input byte for byte
/// (verified against the packed fingerprint). `--table N` extracts one
/// table (header rows verbatim plus reassembled body rows); `--column
/// NAME` (optionally scoped by `--table N`) extracts one column's
/// parsed values, one per line, decoding only that column's block.
pub fn unpack(options: &Options) -> Result<(), CliError> {
    use std::io::Write;
    let input = options
        .inputs
        .first()
        .ok_or("unpack requires a CONTAINER file")?;
    let input = existing(input, "container file")?;
    let name = input.display().to_string();
    let bytes = fs::read(&input).map_err(|e| strudel::StrudelError::io(&e, Some(&name)))?;
    let mut reader =
        strudel_pack::PackReader::open(&bytes).map_err(|e| e.with_file(name.clone()))?;
    let out = reader
        .select(options.table, options.column.as_deref())
        .map_err(|e| e.with_file(name.clone()))?
        .ok_or_else(|| {
            let column = options.column.as_deref().unwrap_or_default();
            let scope = options
                .table
                .map_or(String::new(), |t| format!(" in table {t}"));
            let known: Vec<&str> = reader
                .tables()
                .iter()
                .flat_map(|t| t.columns.iter().map(String::as_str))
                .collect();
            CliError::Usage(format!(
                "no column named {column:?}{scope}; container has: {known:?}"
            ))
        })?;
    match &options.out {
        Some(path) => {
            fs::write(path, &out)
                .map_err(|e| strudel::StrudelError::io(&e, Some(&path.display().to_string())))?;
            eprintln!("wrote {} bytes to {}", out.len(), path.display());
        }
        None => {
            let mut stdout = std::io::stdout().lock();
            stdout
                .write_all(&out)
                .and_then(|()| stdout.flush())
                .map_err(|e| strudel::StrudelError::io(&e, None))?;
        }
    }
    Ok(())
}

/// `strudel eval --model MODEL --corpus DIR`
pub fn eval(options: &Options) -> Result<(), CliError> {
    let corpus_dir = options
        .corpus
        .as_deref()
        .ok_or("eval requires --corpus DIR")?;
    let corpus_dir = existing(corpus_dir, "corpus directory")?;
    let corpus = strudel_corpus::load_corpus(&corpus_dir, "eval").map_err(|e| e.to_string())?;
    if corpus.files.is_empty() {
        return Err("no annotated files in the corpus directory".into());
    }
    let model = model_from(options)?;

    let mut line_gold = Vec::new();
    let mut line_pred = Vec::new();
    let mut cell_gold = Vec::new();
    let mut cell_pred = Vec::new();
    for file in &corpus.files {
        let structure = model.detect_structure_of_table(file.table.clone(), Dialect::rfc4180());
        for r in 0..file.table.n_rows() {
            if let (Some(g), Some(p)) = (file.line_labels[r], structure.lines[r]) {
                line_gold.push(g.index());
                line_pred.push(p.index());
            }
        }
        for cell in &structure.cells {
            if let Some(g) = file.cell_labels[cell.row][cell.col] {
                cell_gold.push(g.index());
                cell_pred.push(cell.class.index());
            }
        }
    }
    println!(
        "evaluated {} files, {} lines, {} cells\n",
        corpus.files.len(),
        line_gold.len(),
        cell_gold.len()
    );
    print_evaluation("line classification:", &line_gold, &line_pred);
    print_evaluation("cell classification:", &cell_gold, &cell_pred);
    Ok(())
}
