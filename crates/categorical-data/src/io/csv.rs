use std::borrow::Cow;
use std::fs;
use std::io::Write as _;
use std::path::Path;

use crate::{CategoricalTable, DataError, Dataset, FeatureDomain, Schema, MISSING};

/// Which column carries the ground-truth class label.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum LabelColumn {
    /// No label column — produces an unlabeled table wrapped in a dataset
    /// with a single pseudo-class.
    #[default]
    None,
    /// The first column is the class label.
    First,
    /// The last column is the class label (the UCI convention).
    Last,
    /// A 0-based column index is the class label.
    Index(usize),
}

/// Options controlling [`read_csv`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvOptions {
    /// Field delimiter; `,` by default.
    pub delimiter: char,
    /// Whether the first record is a header of feature names.
    pub has_header: bool,
    /// Which column (if any) holds the class label.
    pub label: LabelColumn,
    /// Tokens treated as missing values (UCI uses `?`).
    pub missing_tokens: Vec<String>,
    /// Drop rows containing missing values, as the paper's preprocessing does.
    pub drop_missing: bool,
}

impl Default for CsvOptions {
    fn default() -> Self {
        CsvOptions {
            delimiter: ',',
            has_header: false,
            label: LabelColumn::Last,
            missing_tokens: vec!["?".to_owned(), "".to_owned()],
            drop_missing: true,
        }
    }
}

/// Reads a delimiter-separated categorical data file from `path`.
///
/// The file is read into memory once and parsed by [`read_csv_str`]'s
/// single pass; see there for the parsing contract.
///
/// # Errors
///
/// Returns [`DataError::Io`] if the file cannot be read and
/// [`DataError::Parse`] / [`DataError::RowArity`] on malformed content.
///
/// # Example
///
/// ```no_run
/// use categorical_data::io::{read_csv, CsvOptions};
///
/// let ds = read_csv("data/mushroom.data", &CsvOptions::default())?;
/// println!("{} objects, {} features", ds.n_rows(), ds.n_features());
/// # Ok::<(), categorical_data::DataError>(())
/// ```
pub fn read_csv(path: impl AsRef<Path>, options: &CsvOptions) -> Result<Dataset, DataError> {
    let path = path.as_ref();
    let text = fs::read_to_string(path)?;
    let name =
        path.file_stem().map_or_else(|| "csv".to_owned(), |s| s.to_string_lossy().into_owned());
    read_csv_named(&name, &text, options)
}

/// Reads a delimiter-separated categorical data set from a string.
///
/// Parsing is one streaming pass over `text` that keeps no records: each
/// line is split into fields borrowed from `text` (only a line containing
/// `"` is unquoted into owned fields), and its codes go straight into the
/// table. The first data record fixes the width and the label column.
///
/// * A leading UTF-8 byte-order mark is skipped.
/// * Fields are trimmed after unquoting; blank and whitespace-only lines
///   are skipped but still count for line numbers. The header is not
///   arity-checked.
/// * Value codes follow first appearance, per column. When
///   [`CsvOptions::drop_missing`] drops a row, the values before its first
///   missing token stay interned and those after it are not.
/// * The error reported is that of the first malformed line in file order.
///
/// # Errors
///
/// Same conditions as [`read_csv`], minus IO.
pub fn read_csv_str(text: &str, options: &CsvOptions) -> Result<Dataset, DataError> {
    read_csv_named("csv", text, options)
}

/// How many of a column's labels are scanned before falling back to
/// [`FeatureDomain::intern`]'s hash lookup. Categorical columns mostly hold
/// a handful of values, for which comparing a few short strings is cheaper
/// than hashing the field.
const SCAN_LABELS: usize = 16;

fn read_csv_named(name: &str, text: &str, options: &CsvOptions) -> Result<Dataset, DataError> {
    let text = text.strip_prefix('\u{feff}').unwrap_or(text);
    let delimiter = options.delimiter;
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| (i + 1, line));
    // The fields of the current line, reused across lines.
    let mut fields: Vec<Cow<'_, str>> = Vec::new();

    let (mut line_no, mut line) = lines.next().ok_or(DataError::EmptyTable)?;
    let mut header: Vec<String> = Vec::new();
    if options.has_header {
        split_record(line, delimiter, line_no, &mut fields)?;
        header.extend(fields.drain(..).map(Cow::into_owned));
        (line_no, line) = lines.next().ok_or(DataError::EmptyTable)?;
    }
    split_record(line, delimiter, line_no, &mut fields)?;

    let width = fields.len();
    let label_idx = match options.label {
        LabelColumn::None => None,
        LabelColumn::First => Some(0),
        LabelColumn::Last => Some(width - 1),
        LabelColumn::Index(i) => Some(i),
    };
    if let Some(i) = label_idx {
        if i >= width {
            return Err(DataError::Parse {
                line: line_no,
                message: format!("label column {i} out of range for {width}-field records"),
            });
        }
    }

    let d = if label_idx.is_some() { width - 1 } else { width };
    // Header names skip the label column like data rows do.
    if let Some(i) = label_idx.filter(|&i| i < header.len()) {
        header.remove(i);
    }
    let mut names = header.into_iter();
    let mut domains: Vec<FeatureDomain> = (0..d)
        .map(|r| FeatureDomain::new(names.next().unwrap_or_else(|| format!("f{r}"))))
        .collect();
    let mut label_domain = FeatureDomain::new("class");

    // As many rows as records like this one would fill the text: exact for
    // fixed-width files, and never much more than one code per byte.
    let est_rows = text.len() / (line.len() + 1) + 1;
    let mut codes: Vec<u32> = Vec::with_capacity(est_rows * d);
    let mut labels: Vec<usize> = Vec::with_capacity(est_rows);
    loop {
        if fields.len() != width {
            return Err(DataError::Parse {
                line: line_no,
                message: format!("expected {width} fields, found {}", fields.len()),
            });
        }
        let row_start = codes.len();
        let mut label = 0usize;
        let mut dropped = false;
        for (col, field) in fields.iter().enumerate() {
            let field = trim(field);
            if Some(col) == label_idx {
                label = scan(&label_domain, field).unwrap_or_else(|| label_domain.intern(field))
                    as usize;
                continue;
            }
            let domain = &mut domains[codes.len() - row_start];
            let code = match scan(domain, field) {
                Some(code) => code,
                // Missing tokens are never interned, so a scan hit is a value.
                None if options.missing_tokens.iter().any(|t| t == field) => {
                    if options.drop_missing {
                        dropped = true;
                        break;
                    }
                    MISSING
                }
                None => domain.intern(field),
            };
            codes.push(code);
        }
        if dropped {
            codes.truncate(row_start);
        } else {
            labels.push(label);
        }
        let Some(next) = lines.next() else { break };
        (line_no, line) = next;
        split_record(line, delimiter, line_no, &mut fields)?;
    }

    let schema = Schema::new(domains);
    let table = CategoricalTable::from_flat(schema, codes)?;
    Dataset::new(name, table, labels)
}

/// The code of `field` among the first [`SCAN_LABELS`] labels of `domain`.
fn scan(domain: &FeatureDomain, field: &str) -> Option<u32> {
    let field = field.as_bytes();
    domain.iter().take(SCAN_LABELS).find_map(|(code, label)| {
        let label = label.as_bytes();
        // Byte by byte: labels are short, and a `memcmp` call costs more
        // than the comparison.
        let equal = label.len() == field.len() && label.iter().zip(field).all(|(a, b)| a == b);
        equal.then_some(code)
    })
}

/// `field.trim()`, skipping the Unicode scan when both ends are visible
/// ASCII, as they are in nearly every field.
fn trim(field: &str) -> &str {
    let visible = |b: Option<&u8>| b.is_some_and(u8::is_ascii_graphic);
    let bytes = field.as_bytes();
    if visible(bytes.first()) && visible(bytes.last()) {
        field
    } else {
        field.trim()
    }
}

/// Splits one CSV record into `fields`, honouring double-quoted fields with
/// `""` escapes. A line without `"` split on an ASCII delimiter borrows its
/// fields; any other line goes through the quote-aware splitter, whose
/// fields are owned.
fn split_record<'a>(
    line: &'a str,
    delimiter: char,
    line_no: usize,
    fields: &mut Vec<Cow<'a, str>>,
) -> Result<(), DataError> {
    if !delimiter.is_ascii() {
        return split_quoted(line, delimiter, line_no, fields);
    }
    fields.clear();
    let mut start = 0;
    for (i, &b) in line.as_bytes().iter().enumerate() {
        // Checked first, so that a `"` delimiter is still a quote.
        if b == b'"' {
            return split_quoted(line, delimiter, line_no, fields);
        }
        if b == delimiter as u8 {
            // Both ends sit next to ASCII bytes, so on char boundaries.
            fields.push(Cow::Borrowed(&line[start..i]));
            start = i + 1;
        }
    }
    fields.push(Cow::Borrowed(&line[start..]));
    Ok(())
}

/// The quote-aware splitter behind [`split_record`].
fn split_quoted(
    line: &str,
    delimiter: char,
    line_no: usize,
    fields: &mut Vec<Cow<'_, str>>,
) -> Result<(), DataError> {
    fields.clear();
    let mut field = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    in_quotes = false;
                }
            } else {
                field.push(c);
            }
        } else if c == '"' {
            in_quotes = true;
        } else if c == delimiter {
            fields.push(Cow::Owned(std::mem::take(&mut field)));
        } else {
            field.push(c);
        }
    }
    if in_quotes {
        return Err(DataError::Parse {
            line: line_no,
            message: "unterminated quoted field".into(),
        });
    }
    fields.push(Cow::Owned(field));
    Ok(())
}

/// Writes `dataset` as CSV with the class label in the last column.
///
/// A value holding a `,`, `"`, `\r` or `\n` is written quoted, with its
/// inner `"` doubled, so that [`read_csv`] reads it back.
///
/// # Errors
///
/// Returns [`DataError::Io`] if the file cannot be written.
pub fn write_csv(dataset: &Dataset, path: impl AsRef<Path>) -> Result<(), DataError> {
    let mut out = fs::File::create(path)?;
    let table = dataset.table();
    for (i, row) in table.rows().enumerate() {
        let mut fields: Vec<String> = Vec::with_capacity(row.len() + 1);
        for (r, &code) in row.iter().enumerate() {
            if code == MISSING {
                fields.push("?".to_owned());
            } else {
                let label = table.schema().domain(r).label(code).unwrap_or("?");
                fields.push(quote_field(label));
            }
        }
        fields.push(format!("c{}", dataset.labels()[i]));
        writeln!(out, "{}", fields.join(","))?;
    }
    Ok(())
}

/// `value` as one field of [`write_csv`]'s output.
fn quote_field(value: &str) -> String {
    if value.contains([',', '"', '\r', '\n']) {
        format!("\"{}\"", value.replace('"', "\"\""))
    } else {
        value.to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_csv_with_last_label() {
        let ds = read_csv_str("a,x,yes\nb,y,no\na,y,yes\n", &CsvOptions::default()).unwrap();
        assert_eq!(ds.n_rows(), 3);
        assert_eq!(ds.n_features(), 2);
        assert_eq!(ds.k_true(), 2);
        assert_eq!(ds.table().value(2, 0), 0); // "a" interned first
    }

    #[test]
    fn drops_missing_rows_by_default() {
        let ds = read_csv_str("a,x,yes\n?,y,no\nb,z,no\n", &CsvOptions::default()).unwrap();
        assert_eq!(ds.n_rows(), 2);
    }

    #[test]
    fn keeps_missing_when_requested() {
        let options = CsvOptions { drop_missing: false, ..CsvOptions::default() };
        let ds = read_csv_str("a,x,yes\n?,y,no\n", &options).unwrap();
        assert_eq!(ds.n_rows(), 2);
        assert_eq!(ds.table().value(1, 0), MISSING);
    }

    #[test]
    fn header_names_features() {
        let options = CsvOptions { has_header: true, ..CsvOptions::default() };
        let ds = read_csv_str("color,shape,class\nred,round,a\nblue,square,b\n", &options).unwrap();
        assert_eq!(ds.table().schema().domain(0).name(), "color");
        assert_eq!(ds.table().schema().domain(1).name(), "shape");
    }

    #[test]
    fn quoted_fields_with_embedded_delimiters() {
        let ds = read_csv_str("\"a,b\",x,yes\nc,y,no\n", &CsvOptions::default()).unwrap();
        assert_eq!(ds.table().schema().domain(0).label(0), Some("a,b"));
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        let err = read_csv_str("\"abc,x,yes\n", &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, DataError::Parse { line: 1, .. }));
    }

    #[test]
    fn ragged_rows_are_an_error() {
        let err = read_csv_str("a,x,yes\nb,no\n", &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, DataError::Parse { line: 2, .. }));
    }

    #[test]
    fn first_and_index_label_columns() {
        let options = CsvOptions { label: LabelColumn::First, ..CsvOptions::default() };
        let ds = read_csv_str("yes,a,x\nno,b,y\n", &options).unwrap();
        assert_eq!(ds.k_true(), 2);
        assert_eq!(ds.table().schema().domain(0).label(0), Some("a"));

        let options = CsvOptions { label: LabelColumn::Index(1), ..CsvOptions::default() };
        let ds = read_csv_str("a,yes,x\nb,no,y\n", &options).unwrap();
        assert_eq!(ds.k_true(), 2);
        assert_eq!(ds.n_features(), 2);
    }

    #[test]
    fn no_label_column_gives_single_class() {
        let options = CsvOptions { label: LabelColumn::None, ..CsvOptions::default() };
        let ds = read_csv_str("a,x\nb,y\n", &options).unwrap();
        assert_eq!(ds.k_true(), 1);
        assert_eq!(ds.n_features(), 2);
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(matches!(read_csv_str("", &CsvOptions::default()), Err(DataError::EmptyTable)));
    }

    #[test]
    fn round_trip_through_file() {
        let ds = read_csv_str("a,x,yes\nb,y,no\n", &CsvOptions::default()).unwrap();
        let dir = std::env::temp_dir().join("categorical-data-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("round_trip.csv");
        write_csv(&ds, &path).unwrap();
        let back = read_csv(&path, &CsvOptions::default()).unwrap();
        assert_eq!(back.n_rows(), 2);
        assert_eq!(back.n_features(), 2);
        assert_eq!(back.k_true(), 2);
    }

    #[test]
    fn written_quotes_and_delimiters_read_back() {
        let ds = read_csv_str("\"a,b\",x,yes\n\"q\"\"\",y,no\n", &CsvOptions::default()).unwrap();
        assert_eq!(ds.table().schema().domain(0).label(0), Some("a,b"));
        assert_eq!(ds.table().schema().domain(0).label(1), Some("q\""));
        let dir = std::env::temp_dir().join("categorical-data-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("quoted_round_trip.csv");
        write_csv(&ds, &path).unwrap();
        let back = read_csv(&path, &CsvOptions::default()).unwrap();
        assert_eq!(back.table(), ds.table());
        assert_eq!(back.labels(), ds.labels());
    }

    #[test]
    fn leading_byte_order_mark_is_skipped() {
        let plain = read_csv_str("a,x,yes\nb,y,no\n", &CsvOptions::default()).unwrap();
        let text = "\u{feff}a,x,yes\nb,y,no\n";
        assert_eq!(read_csv_str(text, &CsvOptions::default()).unwrap(), plain);
        assert_eq!(plain.table().schema().domain(0).label(0), Some("a"));

        let dir = std::env::temp_dir().join("categorical-data-test");
        std::fs::create_dir_all(&dir).unwrap();
        // Named so that `read_csv` names the data set as `read_csv_str` does.
        let path = dir.join("csv.csv");
        std::fs::write(&path, text).unwrap();
        assert_eq!(read_csv(&path, &CsvOptions::default()).unwrap(), plain);
    }

    #[test]
    fn first_malformed_line_wins() {
        let err = read_csv_str("a,x,yes\nb,no\n\"c,y,no\n", &CsvOptions::default()).unwrap_err();
        assert_eq!(err, DataError::Parse { line: 2, message: "expected 3 fields, found 2".into() });
    }
}
