// The shared `# checksum,<16 hex>` footer convention.
//
// Every persistence format in the repo (the checkpoint CSV every trace
// is stored in, the run-journal manifest) ends with one comment line
// carrying the FNV-1a hash of every byte before it. Loaders verify the
// footer before parsing, so truncation or bit-flips fail with a checksum
// diagnostic instead of a confusing parse error — FNV-1a's per-byte step
// is a bijection for a fixed byte, so any single corrupted byte is
// guaranteed to change the final hash. Factored here (out of
// tuner/persistence.cpp) so the journal and any future format share one
// implementation.
#pragma once

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

#include "support/error.hpp"
#include "support/hash.hpp"

namespace portatune {

inline constexpr std::string_view kChecksumPrefix = "# checksum,";

inline std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// `payload` + the checksum footer line (payload must end with '\n').
inline std::string append_checksum_footer(const std::string& payload) {
  return payload + std::string(kChecksumPrefix) + hex16(hash_bytes(payload)) +
         "\n";
}

/// Verify and strip the checksum footer: the last line must read
/// `# checksum,<16 hex digits>` and the hash of everything before it must
/// match. `what` names the artifact in diagnostics ("checkpoint",
/// "journal"). Throws portatune::Error on any mismatch.
inline std::string strip_verified_checksum_footer(const std::string& content,
                                                  const char* what) {
  const auto pos = content.rfind(kChecksumPrefix);
  if (pos == std::string::npos || (pos != 0 && content[pos - 1] != '\n'))
    throw Error(std::string(what) +
                " checksum footer is missing — the file was truncated");
  std::size_t end = pos + kChecksumPrefix.size();
  std::size_t digits = 0;
  bool hex_ok = true;
  while (end < content.size() && content[end] != '\n') {
    hex_ok = hex_ok && std::isxdigit(static_cast<unsigned char>(content[end]));
    ++digits;
    ++end;
  }
  if (digits != 16 || !hex_ok ||
      content.find_first_not_of('\n', end) != std::string::npos)
    throw Error(std::string(what) +
                " checksum footer is malformed — the file was truncated "
                "or corrupted");
  const std::uint64_t expect = std::stoull(
      content.substr(pos + kChecksumPrefix.size(), 16), nullptr, 16);
  const std::string payload = content.substr(0, pos);
  if (hash_bytes(payload) != expect)
    throw Error(std::string(what) +
                " checksum mismatch — the file is truncated or corrupted");
  return payload;
}

}  // namespace portatune
