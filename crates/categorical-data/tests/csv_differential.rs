//! Differential and fuzz tests of the single-pass CSV parser against the
//! record-buffering oracle in `support/csv_oracle.rs`.
//!
//! On every input the oracle accepts, `read_csv_str` must return an equal
//! `Dataset` (same codes, domains, label codes and names); on every input the
//! oracle rejects, it must also return an error. Arbitrary text must give
//! `Ok` or a typed `DataError`, never a panic.

#[path = "support/csv_oracle.rs"]
mod csv_oracle;

use categorical_data::io::{read_csv_str, CsvOptions, LabelColumn};
use categorical_data::DataError;
use proptest::collection::vec;
use proptest::prelude::*;

/// Field texts a generated row picks from: plain, padded (ASCII and
/// Unicode whitespace), quoted with embedded delimiters and `""` escapes,
/// non-ASCII, and missing tokens bare, padded and quoted.
const CELLS: [&str; 18] = [
    "a",
    "b",
    "c",
    "v1",
    " a ",
    "\ta",
    "\"a\"",
    "\"x,y\"",
    "\"q\"\"r\"",
    "\" b \"",
    "é",
    "\u{a0}b\u{a0}",
    "x\"\"",
    "?",
    "",
    " ? ",
    "\"?\"",
    "NA",
];

/// Per-row kinds: most rows are plain `\n`-terminated records; the rest
/// use CRLF, follow a blank or whitespace-only line, or are dropped rows
/// whose other values appear nowhere else. The last two make the row
/// malformed (ragged, unterminated quote).
const ROW_KINDS: usize = 200;

const DELIMITERS: [char; 4] = [',', ';', '|', '¦'];

/// Renders one generated case as CSV text and the options to read it with.
fn render(
    width: usize,
    rows: &[(Vec<usize>, usize)],
    label: usize,
    delimiter: usize,
    flags: u32,
) -> (String, CsvOptions) {
    let delimiter = DELIMITERS[delimiter];
    let sep = delimiter.to_string();
    let options = CsvOptions {
        delimiter,
        has_header: flags & 1 != 0,
        label: match label / 2 {
            0 => LabelColumn::None,
            1 => LabelColumn::First,
            2 => LabelColumn::Last,
            3 => LabelColumn::Index(width / 2),
            _ => LabelColumn::Index(width + flags as usize % 2),
        },
        missing_tokens: if flags & 4 != 0 {
            vec!["?".to_owned(), String::new(), "NA".to_owned()]
        } else {
            CsvOptions::default().missing_tokens
        },
        drop_missing: flags & 2 != 0,
    };
    let mut text = String::new();
    if options.has_header {
        // The header is not arity-checked: give it one field too few or
        // too many now and then.
        let header_width = (width + (flags as usize >> 3) % 3).saturating_sub(1).max(1);
        let names: Vec<String> = (0..header_width).map(|i| format!("h{i}")).collect();
        text.push_str(&names.join(&sep));
        text.push('\n');
    }
    for (i, (cells, kind)) in rows.iter().enumerate() {
        let mut fields: Vec<String> = cells.iter().map(|&c| CELLS[c].to_owned()).collect();
        let mut end = "\n";
        match kind {
            0..=159 => {}
            160..=169 => end = "\r\n",
            170..=177 => text.push('\n'),
            178..=185 => text.push_str(" \t \r\n"),
            186..=197 => {
                for (c, field) in fields.iter_mut().enumerate() {
                    *field = format!("only{i}_{c}");
                }
                fields[i % width] = "?".to_owned();
            }
            198 => {
                fields.pop();
                if fields.is_empty() {
                    fields.extend(["p".to_owned(), "q".to_owned()]);
                }
            }
            _ => fields[0] = "\"open".to_owned(),
        }
        text.push_str(&fields.join(&sep));
        text.push_str(end);
    }
    if flags & 32 != 0 {
        // No newline after the last record.
        text.pop();
    }
    (text, options)
}

fn csv_case() -> impl Strategy<Value = (String, CsvOptions)> {
    (1usize..6)
        .prop_flat_map(|width| {
            (
                Just(width),
                vec((vec(0usize..CELLS.len(), width), 0usize..ROW_KINDS), 1..30),
                (0usize..9, 0usize..DELIMITERS.len()),
                0u32..64,
            )
        })
        .prop_map(|(width, rows, (label, delimiter), flags)| {
            render(width, &rows, label, delimiter, flags)
        })
}

/// Characters arbitrary text is drawn from: delimiters, quotes, line
/// breaks, Unicode whitespace, a byte-order mark, multi-byte letters.
const ALPHABET: [char; 18] = [
    'a', 'b', '0', '?', ',', ';', '|', '¦', '"', ' ', '\t', '\n', '\r', '\u{0b}', '\u{a0}',
    '\u{feff}', 'é', '\u{2003}',
];

fn arbitrary_case() -> impl Strategy<Value = (String, CsvOptions)> {
    (vec(0usize..ALPHABET.len(), 0..120), 0usize..DELIMITERS.len(), 0usize..12, 0u32..4).prop_map(
        |(chars, delimiter, label, flags)| {
            let options = CsvOptions {
                delimiter: DELIMITERS[delimiter],
                has_header: flags & 1 != 0,
                label: match label {
                    0 => LabelColumn::None,
                    1 => LabelColumn::First,
                    2 => LabelColumn::Last,
                    i => LabelColumn::Index(i - 3),
                },
                drop_missing: flags & 2 != 0,
                ..CsvOptions::default()
            };
            (chars.into_iter().map(|c| ALPHABET[c]).collect(), options)
        },
    )
}

/// The oracle's verdict on `text`, which (unlike the parser) it does not
/// strip of a leading byte-order mark.
fn oracle(text: &str, options: &CsvOptions) -> Result<categorical_data::Dataset, DataError> {
    csv_oracle::read_csv_str(text.strip_prefix('\u{feff}').unwrap_or(text), options)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn parser_matches_oracle(case in csv_case()) {
        let (text, options) = case;
        let got = read_csv_str(&text, &options);
        match oracle(&text, &options) {
            Ok(expected) => prop_assert_eq!(got, Ok(expected), "{:?} {:?}", text, options),
            Err(err) => {
                prop_assert!(got.is_err(), "oracle rejects {text:?} ({err}), parser accepts")
            }
        }
    }

    #[test]
    fn arbitrary_text_gives_ok_or_typed_error(case in arbitrary_case()) {
        let (text, options) = case;
        let got = read_csv_str(&text, &options);
        match &got {
            Ok(_) | Err(DataError::Parse { .. } | DataError::EmptyTable | DataError::RowArity { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error {other:?} on {text:?}"),
        }
        match oracle(&text, &options) {
            Ok(expected) => prop_assert_eq!(got, Ok(expected), "{:?} {:?}", text, options),
            Err(_) => prop_assert!(got.is_err(), "oracle rejects {text:?}, parser accepts"),
        }
    }
}

/// The generator reaches what `parser_matches_oracle` is meant to compare,
/// judged from the oracle's results: accepted and rejected inputs, values
/// interned only by dropped rows, and kept missing values.
#[test]
fn generated_cases_cover_the_contract() {
    use proptest::test_runner::TestRng;

    let strategy = csv_case();
    let mut rng = TestRng::new(7);
    let (mut accepted, mut rejected, mut dropped_values, mut missing_kept) = (0, 0, 0, 0);
    for _ in 0..2000 {
        let (text, options) = strategy.generate(&mut rng);
        match oracle(&text, &options) {
            Ok(ds) => {
                accepted += 1;
                let interned: usize =
                    ds.table().schema().iter().map(|dom| dom.cardinality() as usize).sum();
                let used: usize = (0..ds.n_features())
                    .map(|r| {
                        let mut codes: Vec<u32> = ds
                            .table()
                            .column(r)
                            .filter(|&c| c != categorical_data::MISSING)
                            .collect();
                        codes.sort_unstable();
                        codes.dedup();
                        codes.len()
                    })
                    .sum();
                // A value interned but in no kept row came from a dropped row.
                dropped_values += usize::from(interned > used);
                missing_kept +=
                    usize::from(ds.table().as_flat().contains(&categorical_data::MISSING));
            }
            Err(_) => rejected += 1,
        }
    }
    assert!(accepted > 1000 && rejected > 300, "accepted {accepted}, rejected {rejected}");
    assert!(dropped_values > 200, "only {dropped_values} cases keep values of dropped rows");
    assert!(missing_kept > 200, "only {missing_kept} cases keep a missing value");
}
