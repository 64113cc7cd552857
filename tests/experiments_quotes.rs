//! The measured numbers EXPERIMENTS.md quotes must equal the archived
//! `powerfits-repro` output (`results/powerfits-repro-full.txt`, which CI
//! diffs against the harness's stdout) at the precision they are quoted:
//! the summary table, the FITS8 headline line, note 1's and the Ablations
//! section's A1–A3 quotes. A change that moves a number regenerates the
//! archive and then fails here until the quote follows.

use std::fs;
use std::path::Path;

fn read(file: &str) -> String {
    fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join(file))
        .unwrap_or_else(|e| panic!("{file} is readable: {e}"))
}

/// EXPERIMENTS.md with every run of whitespace collapsed to one space, so
/// a quote may wrap anywhere.
fn experiments() -> String {
    read("EXPERIMENTS.md")
        .split_whitespace()
        .collect::<Vec<_>>()
        .join(" ")
}

/// One `[id]` table of the archive: its column header and its rows, each
/// split on whitespace.
struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

fn table(archive: &str, id: &str) -> Option<Table> {
    let mut lines = archive
        .lines()
        .skip_while(|line| !line.starts_with(&format!("[{id}] ")))
        .skip(1);
    let words = |line: &str| line.split_whitespace().map(str::to_owned).collect();
    let header = words(lines.next()?);
    let rows = lines
        .take_while(|line| !line.trim().is_empty())
        .map(words)
        .collect();
    Some(Table { header, rows })
}

impl Table {
    /// Where figure column `column` sits in a row (a figure row starts
    /// with its label, which has no header).
    fn at(&self, column: &str) -> usize {
        1 + self
            .header
            .iter()
            .position(|h| h == column)
            .unwrap_or_else(|| panic!("no column {column:?} in {:?}", self.header))
    }

    /// The cell of figure row `row` under column `column`.
    fn cell(&self, row: &str, column: &str) -> f64 {
        let cells = self
            .rows
            .iter()
            .find(|r| r[0] == row)
            .unwrap_or_else(|| panic!("no row {row:?}"));
        number(&cells[self.at(column)])
    }

    /// Column `at` of the ablation rows whose first two cells are
    /// `kernel` and `key`.
    fn ablation(&self, kernel: &str, key: &str, at: usize) -> f64 {
        let row = self
            .rows
            .iter()
            .find(|r| r[0] == kernel && r[1] == key)
            .unwrap_or_else(|| panic!("no ablation row {kernel} {key}"));
        number(&row[at])
    }

    /// Column `at` of every row, as numbers.
    fn column(&self, at: usize) -> Vec<f64> {
        self.rows.iter().map(|r| number(&r[at])).collect()
    }
}

fn number(text: &str) -> f64 {
    text.trim_end_matches('%')
        .parse()
        .unwrap_or_else(|e| panic!("{text:?} is not a number: {e}"))
}

/// A quoted number as printed (`−` spelled `-`, `%` dropped), if `token`
/// is one.
fn quoted(token: &str) -> Option<String> {
    let text = token.trim_end_matches('%').replace('−', "-");
    text.parse::<f64>().is_ok().then_some(text)
}

/// Asserts that `value` rounds to `quote` at the quote's own precision,
/// keeping an explicit `+` sign if the quote has one.
fn check(what: &str, quote: &str, value: f64) {
    let decimals = quote.split_once('.').map_or(0, |(_, frac)| frac.len());
    let printed = if quote.starts_with('+') {
        format!("{value:+.decimals$}")
    } else {
        format!("{value:.decimals$}")
    };
    assert_eq!(
        printed, quote,
        "{what}: quoted {quote}, archive gives {value}"
    );
}

/// Asserts that `quotes` is the `[lowest, highest]` of `values`.
fn check_range(what: &str, quotes: &[String], values: &[f64]) {
    let lowest = values.iter().copied().fold(f64::MAX, f64::min);
    let highest = values.iter().copied().fold(f64::MIN, f64::max);
    check(&format!("{what} lowest"), &quotes[0], lowest);
    check(&format!("{what} highest"), &quotes[1], highest);
}

/// The first `n` numbers after `anchor` in `text`, as quoted (`−` spelled
/// `-`). Every anchor ends past the last word with a digit in it (`FITS8`).
fn numbers_after(text: &str, anchor: &str, n: usize) -> Vec<String> {
    let at = text
        .find(anchor)
        .unwrap_or_else(|| panic!("EXPERIMENTS.md no longer says {anchor:?}"));
    let rest = text[at + anchor.len()..].replace('−', "-");
    let found: Vec<String> = rest
        .split(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+')))
        .map(|token| token.trim_end_matches('.'))
        .filter(|token| token.parse::<f64>().is_ok())
        .take(n)
        .map(str::to_owned)
        .collect();
    assert_eq!(found.len(), n, "{n} numbers after {anchor:?}");
    found
}

#[test]
fn summary_table_matches_the_archive() {
    let archive = read("results/powerfits-repro-full.txt");
    let doc = read("EXPERIMENTS.md");
    let mut checked = Vec::new();
    for line in doc.lines().filter(|l| l.starts_with("| Fig. ")) {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        let id = format!("fig{}", cells[1].trim_start_matches("Fig. "));
        // Fig. 2's formats come from the quickstart example, not the harness.
        let Some(fig) = table(&archive, &id) else {
            assert_eq!(id, "fig2", "{id} is missing from the archive");
            continue;
        };
        let mut label = None;
        let mut numbers = 0;
        for token in cells[4].split([' ', ',', '/']).filter(|t| !t.is_empty()) {
            if let Some(quote) = quoted(token) {
                let column = match (label.take(), fig.header.as_slice()) {
                    (Some(column), _) => column,
                    (None, [only]) => only.clone(),
                    (None, _) => panic!("{id}: {quote} has no column label"),
                };
                check(
                    &format!("{id} {column}"),
                    &quote,
                    fig.cell("average", &column),
                );
                numbers += 1;
            } else {
                assert!(
                    fig.header.iter().any(|h| h == token),
                    "{id}: {token:?} is neither a number nor a column of {:?}",
                    fig.header
                );
                label = Some(token.to_owned());
            }
        }
        assert!(numbers > 0, "{id} quotes no number");
        checked.push(id);
    }
    let expected: Vec<String> = (3..=14).map(|n| format!("fig{n}")).collect();
    assert_eq!(checked, expected, "every archived figure has a summary row");
}

#[test]
fn headline_fits8_line_matches_the_archive() {
    let archive = read("results/powerfits-repro-full.txt");
    let quotes = numbers_after(&experiments(), "ours (FITS8) ", 5);
    for (quote, id) in quotes.iter().zip(["fig7", "fig8", "fig9", "fig11"]) {
        let fig = table(&archive, id).expect("figure is archived");
        check(
            &format!("headline {id}"),
            quote,
            fig.cell("average", "FITS8"),
        );
    }
    // "up to … peak": the best single kernel of Figure 10 (susan.corners;
    // the average row never exceeds it).
    let fig10 = table(&archive, "fig10").expect("fig10 is archived");
    let peak = fig10.column(fig10.at("FITS8"));
    check(
        "headline peak",
        &quotes[4],
        peak.into_iter().fold(f64::MIN, f64::max),
    );
}

#[test]
fn ablation_quotes_match_the_archive() {
    let archive = read("results/powerfits-repro-full.txt");
    let doc = experiments();
    let a1 = table(&archive, "A1").expect("A1 is archived");
    const DYNAMIC: usize = 3;

    // Note 1: the suite-average mapping rates, then crc32's A1 sweep.
    let rates = numbers_after(&doc, "higher than the paper's** (", 2);
    for (quote, id) in rates.iter().zip(["fig3", "fig4"]) {
        let fig = table(&archive, id).expect("figure is archived");
        check(
            &format!("note 1 {id}"),
            quote,
            fig.cell("average", &fig.header[0]),
        );
    }
    let crc32 = [
        numbers_after(&doc, "crc32 falls to ", 1),
        numbers_after(&doc, "climbs through ", 3),
    ]
    .concat();
    for (quote, bits) in crc32.iter().zip(["0", "2", "4", "6"]) {
        check(
            &format!("note 1 crc32 bits {bits}"),
            quote,
            a1.ablation("crc32", bits, DYNAMIC),
        );
    }

    // A1: sha's dynamic rate at two widths, quoted as `rate% … width`.
    let sha = numbers_after(&doc, "(e.g. sha: ", 4);
    for pair in sha.chunks(2) {
        let (quote, bits) = (&pair[0], &pair[1]);
        check(
            &format!("A1 sha bits {bits}"),
            quote,
            a1.ablation("sha", bits, DYNAMIC),
        );
    }

    // A2: the range of the printed delta% column.
    let a2 = table(&archive, "A2").expect("A2 is archived");
    check_range(
        "A2 delta",
        &numbers_after(&doc, "toggling by ", 2),
        &a2.column(3),
    );

    // A3: every 3-bit translation fails, over the printed register counts.
    let a3 = table(&archive, "A3").expect("A3 is archived");
    assert!(
        a3.rows.iter().all(|r| r[2] == "fails:"),
        "EXPERIMENTS.md says 3-bit translation fails for every kernel"
    );
    check_range(
        "A3 registers",
        &numbers_after(&doc, "code touches ", 2),
        &a3.column(1),
    );
}
