// Small string utilities shared across modules (VDL parsing, VOTable XML,
// HTTP-style query strings, FITS header cards).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace nvo {

/// Splits on a single character; empty fields are preserved.
std::vector<std::string> split(std::string_view s, char delim);

/// Splits on any whitespace run; empty fields are dropped.
std::vector<std::string> split_ws(std::string_view s);

/// Trims ASCII whitespace from both ends.
std::string_view trim(std::string_view s);

/// ASCII lowercase copy.
std::string to_lower(std::string_view s);

bool starts_with(std::string_view s, std::string_view prefix);
bool ends_with(std::string_view s, std::string_view suffix);

/// Joins elements with a separator.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Parses a double; returns nullopt on any trailing garbage.
std::optional<double> parse_double(std::string_view s);

/// Parses a signed 64-bit integer; returns nullopt on any trailing garbage.
std::optional<long long> parse_int(std::string_view s);

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Fixed-point formatting helper (value with `digits` decimals).
std::string fixed(double value, int digits);

/// Replaces every occurrence of `from` with `to`.
std::string replace_all(std::string s, std::string_view from, std::string_view to);

// Record codec shared by the checkpoint journal (its record framing and the
// compute service's row records) and the survey's spill runs (all
// space-separated text lines). Doubles travel as their
// 16-hex-digit IEEE-754 bit pattern, so a decoded value is bit-identical to
// the encoded one; free-text fields are percent-escaped so they cannot
// break the framing (URL query decoding shares the same decoder).

/// Appends `v` as 16 lowercase hex digits.
void append_hex_u64(std::string& out, std::uint64_t v);
/// Appends the bit pattern of `v` as 16 lowercase hex digits.
void append_hex_double(std::string& out, double v);
std::string hex_u64(std::uint64_t v);
/// Parse a whole field written by the appenders above; false on anything else.
bool parse_hex_u64(std::string_view text, std::uint64_t& out);
bool parse_hex_double(std::string_view text, double& out);

/// Percent-encodes '%' and every byte <= 0x20 (space and all control
/// characters) as "%XX", so a field survives any whitespace tokenizer.
std::string escape_field(std::string_view s);
/// Decodes every valid "%XX" escape; anything else passes through verbatim,
/// except that '+' becomes ' ' when `plus_is_space` (URL query encoding).
std::string unescape_field(std::string_view s, bool plus_is_space = false);

}  // namespace nvo
