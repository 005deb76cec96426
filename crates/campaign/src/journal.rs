//! The append-only JSONL journal: one implementation of the durability
//! contract behind a store's `records.jsonl` and `failures.jsonl` and the
//! design-search eval cache's `evals.jsonl` (`DESIGN.md`, "Durable
//! journal").
//!
//! - **Lines.** Each entry is one line ending in `\n`. Blank lines are
//!   skipped. Every other line goes through a caller-supplied decoder.
//! - **Torn tail.** Only the final line can lack its `\n`. If it also
//!   fails to decode, it is the torn write of a killed process and reads
//!   as end-of-file. A decode failure anywhere else is
//!   [`io::ErrorKind::InvalidData`] naming the path and the 1-based line.
//! - **Prefix rule.** A decoder must refuse every proper prefix of a line
//!   its writer renders. That is what makes a final line that *does*
//!   decode complete, so it is kept even without its `\n`.
//! - **Repair.** [`Journal::open`] truncates a torn tail away, or
//!   restores the missing `\n` after a complete final line, so the next
//!   append starts on a clean line. `Journal::read` never writes.
//! - **Append.** [`Journal::append`] creates the file on first use and
//!   rolls a failed write back to the last good length before any retry,
//!   so a partial write never becomes interior corruption.

use crate::executor::FailurePolicy;
use crate::store::write_atomic;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Write};
use std::path::{Path, PathBuf};

/// An append-only JSONL file. See the [module docs](self).
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    /// Hit-count failpoint visited before every append attempt.
    failpoint: Option<&'static str>,
    /// Opened on the first append, so a journal never appended to never
    /// creates its file.
    file: Option<File>,
    /// Length of the file through its last complete line.
    len: u64,
}

impl Journal {
    /// A read-only streaming reader over the journal at `path` (a missing
    /// file reads as empty). It never writes, so it tolerates a torn tail
    /// by reading it as end-of-file and leaves the bytes alone.
    pub(crate) fn read(path: impl Into<PathBuf>) -> io::Result<JournalReader> {
        let path = path.into();
        let reader = match File::open(&path) {
            Ok(f) => Some(BufReader::new(f)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        Ok(JournalReader {
            path,
            reader,
            buf: Vec::new(),
            line_no: 0,
            read_len: 0,
            good_len: 0,
            unterminated: false,
        })
    }

    /// Opens the journal at `path` for appending: every durable line is
    /// decoded and handed to `each` with its 1-based line number, then the
    /// tail is repaired (a torn line truncated away, a missing final `\n`
    /// restored). `failpoint` names the hit-count site each append
    /// attempt visits.
    pub fn open<T>(
        path: impl Into<PathBuf>,
        failpoint: Option<&'static str>,
        mut decode: impl FnMut(&str) -> io::Result<T>,
        mut each: impl FnMut(T, usize) -> io::Result<()>,
    ) -> io::Result<Journal> {
        let mut lines = Journal::read(path)?;
        while let Some(v) = lines.next(&mut decode)? {
            each(v, lines.line_no)?;
        }
        if lines.read_len > lines.good_len {
            OpenOptions::new().write(true).open(&lines.path)?.set_len(lines.good_len)?;
        } else if lines.unterminated {
            OpenOptions::new().append(true).open(&lines.path)?.write_all(b"\n")?;
        }
        Ok(Journal { path: lines.path, failpoint, file: None, len: 0 })
    }

    /// The journal's file.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one complete line (ending in `\n`). A failed attempt is
    /// truncated back to the last good length, then retried as `policy`
    /// allows, sleeping its backoff between attempts.
    pub fn append(&mut self, line: &[u8], policy: &FailurePolicy) -> io::Result<()> {
        debug_assert!(line.ends_with(b"\n"), "journal lines end in a newline");
        let file = match self.file.as_mut() {
            Some(f) => f,
            None => {
                let f = OpenOptions::new().create(true).append(true).open(&self.path)?;
                self.len = f.metadata()?.len();
                self.file.insert(f)
            }
        };
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let res = self
                .failpoint
                .map_or(Ok(()), eend_fail::io_guard)
                .and_then(|()| file.write_all(line));
            match res {
                Ok(()) => {
                    self.len += line.len() as u64;
                    return Ok(());
                }
                Err(e) => {
                    file.set_len(self.len)?;
                    if attempt >= policy.attempts() {
                        return Err(e);
                    }
                    let delay = policy.backoff_delay(attempt);
                    if !delay.is_zero() {
                        std::thread::sleep(delay);
                    }
                }
            }
        }
    }

    /// Atomically replaces the whole journal with `bytes` (complete
    /// lines), e.g. to rewrite it in a new order.
    pub(crate) fn replace(&mut self, bytes: &[u8]) -> io::Result<()> {
        // The rename orphans any open handle; the next append reopens.
        self.file = None;
        write_atomic(&self.path, bytes)
    }
}

/// A sequential reader over a journal's lines, from [`Journal::read`].
#[derive(Debug)]
pub(crate) struct JournalReader {
    path: PathBuf,
    reader: Option<BufReader<File>>,
    buf: Vec<u8>,
    line_no: usize,
    /// Bytes consumed so far.
    read_len: u64,
    /// Bytes through the last line kept (decoded, or blank and ended).
    good_len: u64,
    /// The final line decoded but lacks its `\n`.
    unterminated: bool,
}

impl JournalReader {
    /// Decodes the next non-blank line, or returns `None` at end-of-file
    /// (a torn final line counts as end-of-file).
    pub(crate) fn next<T>(
        &mut self,
        decode: impl FnOnce(&str) -> io::Result<T>,
    ) -> io::Result<Option<T>> {
        let Some(reader) = self.reader.as_mut() else { return Ok(None) };
        loop {
            self.buf.clear();
            let n = reader.read_until(b'\n', &mut self.buf)?;
            if n == 0 {
                return Ok(None);
            }
            self.line_no += 1;
            self.read_len += n as u64;
            let ended = self.buf.last() == Some(&b'\n');
            let body = if ended { &self.buf[..n - 1] } else { &self.buf[..] };
            let text = std::str::from_utf8(body)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "not UTF-8"));
            if ended && text.as_ref().is_ok_and(|t| t.trim().is_empty()) {
                self.good_len = self.read_len;
                continue;
            }
            match text.and_then(decode) {
                Ok(v) => {
                    self.good_len = self.read_len;
                    self.unterminated = !ended;
                    return Ok(Some(v));
                }
                Err(_) if !ended => return Ok(None),
                Err(e) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("corrupt line {} in {}: {e}", self.line_no, self.path.display()),
                    ))
                }
            }
        }
    }

    /// The 1-based number of the line [`JournalReader::next`] last read.
    pub(crate) fn line_no(&self) -> usize {
        self.line_no
    }

    /// The file being read.
    pub(crate) fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Backoff;
    use eend_fail::FailAction;

    /// A toy line format, `<text>`: the closing `>` is required, so no
    /// proper prefix of a line decodes (the journal's prefix rule).
    fn angle(line: &str) -> io::Result<String> {
        line.strip_prefix('<')
            .and_then(|r| r.strip_suffix('>'))
            .map(str::to_owned)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "not <text>"))
    }

    fn scratch(tag: &str, body: Option<&str>) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("eend-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        if let Some(body) = body {
            std::fs::write(&path, body).unwrap();
        }
        path
    }

    fn read_all(path: &Path) -> io::Result<Vec<String>> {
        let mut lines = Journal::read(path)?;
        let mut out = Vec::new();
        while let Some(v) = lines.next(angle)? {
            out.push(v);
        }
        Ok(out)
    }

    fn open_all(path: &Path) -> io::Result<(Journal, Vec<(String, usize)>)> {
        let mut out = Vec::new();
        let j = Journal::open(path, Some("store.flush"), angle, |v, line| {
            out.push((v, line));
            Ok(())
        })?;
        Ok((j, out))
    }

    fn bytes(path: &Path) -> String {
        std::fs::read_to_string(path).unwrap()
    }

    fn cleanup(path: &Path) {
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn open_truncates_a_torn_tail_and_a_read_leaves_it_alone() {
        let path = scratch("torn", Some("<a>\n<b>\n<c"));
        assert_eq!(read_all(&path).unwrap(), ["a", "b"], "a torn tail reads as end-of-file");
        assert_eq!(bytes(&path), "<a>\n<b>\n<c", "reading never writes");
        let (_, got) = open_all(&path).unwrap();
        assert_eq!(got, [("a".to_owned(), 1), ("b".to_owned(), 2)]);
        assert_eq!(bytes(&path), "<a>\n<b>\n", "open truncates the torn tail away");
        cleanup(&path);
    }

    #[test]
    fn a_complete_final_line_missing_its_newline_is_kept_and_terminated() {
        let path = scratch("unterminated", Some("<a>\n<b>"));
        assert_eq!(read_all(&path).unwrap(), ["a", "b"]);
        assert_eq!(bytes(&path), "<a>\n<b>");
        let (mut j, got) = open_all(&path).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(bytes(&path), "<a>\n<b>\n", "open restores the newline");
        j.append(b"<c>\n", &FailurePolicy::Abort).unwrap();
        assert_eq!(bytes(&path), "<a>\n<b>\n<c>\n");
        cleanup(&path);
    }

    #[test]
    fn blank_lines_are_skipped_and_line_numbers_count_them() {
        let path = scratch("blank", Some("\n<a>\n  \n\n<b>\n"));
        let (_, got) = open_all(&path).unwrap();
        assert_eq!(got, [("a".to_owned(), 2), ("b".to_owned(), 5)]);
        assert_eq!(bytes(&path), "\n<a>\n  \n\n<b>\n", "a clean journal is not rewritten");
        cleanup(&path);
    }

    #[test]
    fn interior_corruption_names_the_path_and_line() {
        let path = scratch("interior", Some("<a>\n<b\n<c>\n"));
        for err in [read_all(&path).unwrap_err(), open_all(&path).unwrap_err()] {
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(msg.contains("line 2") && msg.contains("j.jsonl"), "got: {msg}");
        }
        assert_eq!(bytes(&path), "<a>\n<b\n<c>\n", "a refused journal is left as found");
        cleanup(&path);
    }

    #[test]
    fn a_torn_multibyte_char_is_a_torn_tail() {
        // "日" is three bytes; cut after the first.
        let path = scratch("utf8", None);
        std::fs::write(&path, [b"<a>\n<\xe6".as_slice()].concat()).unwrap();
        assert_eq!(read_all(&path).unwrap(), ["a"]);
        open_all(&path).unwrap();
        assert_eq!(bytes(&path), "<a>\n");
        cleanup(&path);
    }

    #[test]
    fn a_journal_never_appended_to_never_creates_its_file() {
        let path = scratch("lazy", None);
        assert!(read_all(&path).unwrap().is_empty(), "a missing file reads as empty");
        let (j, got) = open_all(&path).unwrap();
        assert!(got.is_empty());
        drop(j);
        assert!(!path.exists());
        cleanup(&path);
    }

    /// Arms the process-global `store.flush` site: no other test in this
    /// binary appends through it, so every hit it counts is this test's.
    #[test]
    fn a_failed_append_rolls_back_and_the_next_starts_on_a_clean_line() {
        let path = scratch("rollback", None);
        let (mut j, _) = open_all(&path).unwrap();
        j.append(b"<a>\n", &FailurePolicy::Abort).unwrap();
        // The partial bytes a failing write may land before it errors.
        let tear = || OpenOptions::new().append(true).open(&path)?.write_all(b"<b");
        tear().unwrap();
        eend_fail::set("store.flush", FailAction::IoErr, 1, false);
        assert!(j.append(b"<b>\n", &FailurePolicy::Abort).is_err());
        assert_eq!(bytes(&path), "<a>\n", "the failed attempt is truncated away");
        j.append(b"<c>\n", &FailurePolicy::Abort).unwrap();
        assert_eq!(bytes(&path), "<a>\n<c>\n");

        // Under a retry policy the second attempt lands on the clean line.
        tear().unwrap();
        eend_fail::set("store.flush", FailAction::IoErr, 1, false);
        let retry = FailurePolicy::Retry { max_attempts: 2, backoff: Backoff::none() };
        j.append(b"<d>\n", &retry).unwrap();
        eend_fail::clear();
        assert_eq!(bytes(&path), "<a>\n<c>\n<d>\n");
        assert_eq!(read_all(&path).unwrap(), ["a", "c", "d"]);
        cleanup(&path);
    }

    #[test]
    fn replace_swaps_the_file_and_appends_follow_it() {
        let path = scratch("replace", None);
        let (mut j, _) = open_all(&path).unwrap();
        j.append(b"<b>\n", &FailurePolicy::Abort).unwrap();
        j.append(b"<a>\n", &FailurePolicy::Abort).unwrap();
        j.replace(b"<a>\n<b>\n").unwrap();
        j.append(b"<c>\n", &FailurePolicy::Abort).unwrap();
        assert_eq!(bytes(&path), "<a>\n<b>\n<c>\n");
        cleanup(&path);
    }
}
