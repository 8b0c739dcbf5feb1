#include "src/common/string_util.h"

#include <cctype>

namespace gqlite {

std::string AsciiToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string AsciiToUpper(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return out;
}

bool AsciiEqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::vector<std::string> SplitBy(std::string_view s, std::string_view sep) {
  // Byte-exact separator matching is UTF-8 clean: a valid UTF-8 separator
  // can only match at code-point boundaries, so the pieces stay valid.
  std::vector<std::string> out;
  if (sep.empty()) {
    out.emplace_back(s);
    return out;
  }
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + sep.size();
  }
  return out;
}

std::string_view LTrimView(std::string_view s) {
  size_t i = 0;
  while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  return s.substr(i);
}

std::string_view RTrimView(std::string_view s) {
  size_t n = s.size();
  while (n > 0 && std::isspace(static_cast<unsigned char>(s[n - 1]))) --n;
  return s.substr(0, n);
}

std::string_view TrimView(std::string_view s) { return RTrimView(LTrimView(s)); }

bool StartsWith(std::string_view s, std::string_view piece) {
  return s.size() >= piece.size() && s.substr(0, piece.size()) == piece;
}

bool EndsWith(std::string_view s, std::string_view piece) {
  return s.size() >= piece.size() && s.substr(s.size() - piece.size()) == piece;
}

bool Contains(std::string_view s, std::string_view piece) {
  return s.find(piece) != std::string_view::npos;
}

namespace {

/// True if `b` is a UTF-8 continuation byte (10xxxxxx).
inline bool IsUtf8Continuation(unsigned char b) { return (b & 0xC0) == 0x80; }

/// Byte length of the code point starting at `s[i]`. An invalid lead byte
/// (or a truncated sequence) yields 1 so malformed input advances byte by
/// byte instead of looping or overrunning.
size_t Utf8SeqLen(std::string_view s, size_t i) {
  unsigned char b = static_cast<unsigned char>(s[i]);
  size_t len = 1;
  if ((b & 0x80) == 0x00) len = 1;
  else if ((b & 0xE0) == 0xC0) len = 2;
  else if ((b & 0xF0) == 0xE0) len = 3;
  else if ((b & 0xF8) == 0xF0) len = 4;
  else return 1;  // stray continuation or invalid lead byte
  if (i + len > s.size()) return 1;
  for (size_t k = 1; k < len; ++k) {
    if (!IsUtf8Continuation(static_cast<unsigned char>(s[i + k]))) return 1;
  }
  return len;
}

}  // namespace

size_t Utf8Length(std::string_view s) {
  size_t count = 0;
  for (size_t i = 0; i < s.size(); i += Utf8SeqLen(s, i)) ++count;
  return count;
}

size_t Utf8OffsetOf(std::string_view s, size_t cp_index) {
  size_t i = 0;
  while (cp_index > 0 && i < s.size()) {
    i += Utf8SeqLen(s, i);
    --cp_index;
  }
  return i;
}

std::string Utf8Substr(std::string_view s, size_t start, size_t len) {
  size_t from = Utf8OffsetOf(s, start);
  std::string_view rest = s.substr(from);
  size_t to = Utf8OffsetOf(rest, len);
  return std::string(rest.substr(0, to));
}

namespace {

/// Decodes the code point starting at `s[i]` (caller guarantees a valid
/// sequence per Utf8SeqLen; `len` is its byte length).
uint32_t DecodeUtf8(std::string_view s, size_t i, size_t len) {
  unsigned char b0 = static_cast<unsigned char>(s[i]);
  switch (len) {
    case 1:
      return b0;
    case 2:
      return ((b0 & 0x1Fu) << 6) |
             (static_cast<unsigned char>(s[i + 1]) & 0x3Fu);
    case 3:
      return ((b0 & 0x0Fu) << 12) |
             ((static_cast<unsigned char>(s[i + 1]) & 0x3Fu) << 6) |
             (static_cast<unsigned char>(s[i + 2]) & 0x3Fu);
    default:
      return ((b0 & 0x07u) << 18) |
             ((static_cast<unsigned char>(s[i + 1]) & 0x3Fu) << 12) |
             ((static_cast<unsigned char>(s[i + 2]) & 0x3Fu) << 6) |
             (static_cast<unsigned char>(s[i + 3]) & 0x3Fu);
  }
}

void EncodeUtf8(uint32_t cp, std::string* out) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

// ---- Case-folding table ------------------------------------------------
// Generated from the UnicodeData simple case mappings for the blocks the
// engine supports without ICU: Latin-1 Supplement, Latin Extended-A,
// Greek and Coptic (letters), Cyrillic (basic + Ё-range). Three range
// shapes cover nearly everything; the rest are explicit exceptions.

/// An [lo, hi] run of UPPERCASE code points whose lowercase partner sits
/// at a fixed positive offset (Δ = lower − upper).
struct OffsetRange {
  uint32_t lo;
  uint32_t hi;
  uint32_t delta;
};

constexpr OffsetRange kOffsetRanges[] = {
    {0x00C0, 0x00D6, 0x20},  // À–Ö ↔ à–ö  (× at 00D7 is not a letter)
    {0x00D8, 0x00DE, 0x20},  // Ø–Þ ↔ ø–þ
    {0x0391, 0x03A1, 0x20},  // Α–Ρ ↔ α–ρ  (03A2 is unassigned)
    {0x03A3, 0x03AB, 0x20},  // Σ–Ϋ ↔ σ–ϋ
    {0x0400, 0x040F, 0x50},  // Ѐ–Џ ↔ ѐ–џ
    {0x0410, 0x042F, 0x20},  // А–Я ↔ а–я
};

/// An [lo, hi] run of alternating UPPER/lower pairs. `upper_even` tells
/// whether the uppercase partner of each pair is the even code point.
struct PairRange {
  uint32_t lo;
  uint32_t hi;
  bool upper_even;
};

constexpr PairRange kPairRanges[] = {
    {0x0100, 0x012F, true},   // Ā..į  (İ/ı at 0130/0131 are exceptions)
    {0x0132, 0x0137, true},   // Ĳ..ķ  (0138 ĸ is caseless)
    {0x0139, 0x0148, false},  // Ĺ..ň  (0149 ŉ is caseless/deprecated)
    {0x014A, 0x0177, true},   // Ŋ..ŷ
    {0x0179, 0x017E, false},  // Ź..ž
};

/// Asymmetric mappings the ranges cannot express.
struct CaseException {
  uint32_t cp;
  uint32_t upper;
  uint32_t lower;
};

constexpr CaseException kCaseExceptions[] = {
    {0x00B5, 0x039C, 0x00B5},  // µ (micro) uppercases to Μ
    {0x00FF, 0x0178, 0x00FF},  // ÿ ↔ Ÿ
    {0x0130, 0x0130, 0x0069},  // İ lowercases to plain i
    {0x0131, 0x0049, 0x0131},  // ı uppercases to plain I
    {0x0178, 0x0178, 0x00FF},  // Ÿ ↔ ÿ
    {0x017F, 0x0053, 0x017F},  // ſ (long s) uppercases to S
    // Greek with tonos/dialytika: the upper block (0386, 0388–038F) and
    // the lower block (03AC–03AF, 03CC–03CE) sit at irregular offsets.
    {0x0386, 0x0386, 0x03AC},  // Ά ↔ ά
    {0x0388, 0x0388, 0x03AD},  // Έ ↔ έ
    {0x0389, 0x0389, 0x03AE},  // Ή ↔ ή
    {0x038A, 0x038A, 0x03AF},  // Ί ↔ ί
    {0x038C, 0x038C, 0x03CC},  // Ό ↔ ό
    {0x038E, 0x038E, 0x03CD},  // Ύ ↔ ύ
    {0x038F, 0x038F, 0x03CE},  // Ώ ↔ ώ
    {0x03AC, 0x0386, 0x03AC},
    {0x03AD, 0x0388, 0x03AD},
    {0x03AE, 0x0389, 0x03AE},
    {0x03AF, 0x038A, 0x03AF},
    {0x03C2, 0x03A3, 0x03C2},  // ς (final sigma) uppercases to Σ
    {0x03CC, 0x038C, 0x03CC},
    {0x03CD, 0x038E, 0x03CD},
    {0x03CE, 0x038F, 0x03CE},
    // ΐ (0390) and ΰ (03B0) have no 1:1 simple mapping; they pass through.
};

uint32_t CaseMap(uint32_t cp, bool to_upper) {
  if (cp < 0x80) {
    if (to_upper && cp >= 'a' && cp <= 'z') return cp - 0x20;
    if (!to_upper && cp >= 'A' && cp <= 'Z') return cp + 0x20;
    return cp;
  }
  for (const CaseException& e : kCaseExceptions) {
    if (e.cp == cp) return to_upper ? e.upper : e.lower;
  }
  for (const OffsetRange& r : kOffsetRanges) {
    if (to_upper && cp >= r.lo + r.delta && cp <= r.hi + r.delta) {
      return cp - r.delta;
    }
    if (!to_upper && cp >= r.lo && cp <= r.hi) return cp + r.delta;
  }
  for (const PairRange& r : kPairRanges) {
    if (cp < r.lo || cp > r.hi) continue;
    bool is_upper = (cp % 2 == 0) == r.upper_even;
    if (to_upper && !is_upper) return cp - 1;
    if (!to_upper && is_upper) return cp + 1;
    return cp;
  }
  return cp;
}

std::string Utf8CaseMap(std::string_view s, bool to_upper) {
  // ASCII fast path: map bytes in place, no decoding.
  bool ascii = true;
  for (char c : s) {
    if (static_cast<unsigned char>(c) >= 0x80) {
      ascii = false;
      break;
    }
  }
  if (ascii) return to_upper ? AsciiToUpper(s) : AsciiToLower(s);
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size();) {
    size_t len = Utf8SeqLen(s, i);
    if (len == 1 && static_cast<unsigned char>(s[i]) >= 0x80) {
      out.push_back(s[i]);  // invalid byte passes through untouched
      ++i;
      continue;
    }
    uint32_t cp = DecodeUtf8(s, i, len);
    // Overlong encodings (e.g. C1 A1 for 'a') decode to a code point
    // whose canonical encoding is shorter; re-encoding would silently
    // rewrite the bytes. Invalid input passes through byte-identical,
    // like every other Utf8* helper here.
    size_t canonical =
        cp < 0x80 ? 1 : cp < 0x800 ? 2 : cp < 0x10000 ? 3 : 4;
    if (canonical != len) {
      out.append(s.substr(i, len));
    } else {
      EncodeUtf8(CaseMap(cp, to_upper), &out);
    }
    i += len;
  }
  return out;
}

}  // namespace

std::string Utf8ToUpper(std::string_view s) { return Utf8CaseMap(s, true); }

std::string Utf8ToLower(std::string_view s) { return Utf8CaseMap(s, false); }

std::string Utf8Reverse(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  size_t i = s.size();
  while (i > 0) {
    // A UTF-8 sequence is at most 4 bytes, so the back-scan for the lead
    // byte is bounded; long invalid continuation runs must stay O(n).
    size_t start = i - 1;
    while (start > 0 && i - start < 4 &&
           IsUtf8Continuation(static_cast<unsigned char>(s[start]))) {
      --start;
    }
    if (IsUtf8Continuation(static_cast<unsigned char>(s[start]))) {
      out.push_back(s[i - 1]);
      --i;
      continue;
    }
    // Only keep the run together if it really is one code point; otherwise
    // emit the trailing bytes individually (invalid input stays byte-wise).
    if (Utf8SeqLen(s, start) == i - start) {
      out.append(s.substr(start, i - start));
      i = start;
    } else {
      out.push_back(s[i - 1]);
      --i;
    }
  }
  return out;
}

}  // namespace gqlite
