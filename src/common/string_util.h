#ifndef GQLITE_COMMON_STRING_UTIL_H_
#define GQLITE_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace gqlite {

/// ASCII-only lowercase (Cypher keywords are case-insensitive ASCII).
std::string AsciiToLower(std::string_view s);

/// ASCII-only uppercase.
std::string AsciiToUpper(std::string_view s);

/// Case-insensitive ASCII equality.
bool AsciiEqualsIgnoreCase(std::string_view a, std::string_view b);

/// Splits `s` on the (non-empty) separator string, Cypher split() semantics.
std::vector<std::string> SplitBy(std::string_view s, std::string_view sep);

/// Trims ASCII whitespace from both ends.
std::string_view TrimView(std::string_view s);
std::string_view LTrimView(std::string_view s);
std::string_view RTrimView(std::string_view s);

/// True if `s` starts with / ends with / contains `piece`.
bool StartsWith(std::string_view s, std::string_view piece);
bool EndsWith(std::string_view s, std::string_view piece);
bool Contains(std::string_view s, std::string_view piece);

// --- UTF-8 code-point helpers -------------------------------------------
// Cypher string functions are specified over characters, not bytes
// (openCypher; Francis et al. §3.1 treat strings as character sequences).
// These helpers treat a string as a sequence of UTF-8 code points. Bytes
// that do not form valid UTF-8 degrade gracefully: every invalid byte
// counts as one unit, so operations never split a valid multi-byte
// sequence and never read out of bounds.

/// Number of UTF-8 code points in `s`.
size_t Utf8Length(std::string_view s);

/// Byte offset of the `cp_index`-th code point; `s.size()` when `cp_index`
/// is at or past the end.
size_t Utf8OffsetOf(std::string_view s, size_t cp_index);

/// Substring of `len` code points starting at code point `start`.
std::string Utf8Substr(std::string_view s, size_t start, size_t len);

/// `s` with its code points in reverse order (bytes inside each code
/// point keep their order, so the result is valid UTF-8).
std::string Utf8Reverse(std::string_view s);

/// Unicode simple (1:1) case mapping over UTF-8 for toUpper()/toLower().
/// Covers ASCII, Latin-1 Supplement, Latin Extended-A, Greek and basic
/// Cyrillic via a generated case-folding table (the container has no
/// ICU); code points outside the table pass through unchanged, as do
/// caseless letters (ß, ĸ, ŉ). ASCII-only strings take a byte-loop fast
/// path. One-to-many full mappings (ß → "SS") are intentionally not
/// applied — the mapping is length-preserving in code points.
std::string Utf8ToUpper(std::string_view s);
std::string Utf8ToLower(std::string_view s);

}  // namespace gqlite

#endif  // GQLITE_COMMON_STRING_UTIL_H_
