// Durable campaign checkpoint journal. The paper's workflow layer survives
// node failures with DAGMan rescue DAGs — "a rescue DAG is produced which
// can be used to resume the computation at a later time" (§4) — but a
// rescue DAG built in memory inside one request's rescue rounds dies with
// the process, so a killed campaign would restart from zero. This journal
// is the durable half of that promise: an append-only, versioned,
// checksummed record stream that persists DAG node completions,
// staged-replica registrations, and per-galaxy morphology rows, and that
// loads tolerantly — a truncated tail (the kill arrived mid-write) silently
// marks the resume point instead of poisoning the file.
//
// Format (text framing, binary-safe payloads):
//   NVOCKPT 1\n
//   rec <kind> <key%enc> <payload-len> <fnv64-hex>\n<payload bytes>\n
//   ...
// The FNV-1a checksum covers the payload; any malformed or short record
// ends the load. The journal is generic — (kind, key) -> payload, latest
// write wins — so upper layers define their own record vocabulary without
// this module depending on them (portal encodes morphology rows, the
// campaign stores finished cluster catalogs).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "common/expected.hpp"

namespace nvo::grid {

class CheckpointJournal {
 public:
  struct Stats {
    std::uint64_t records_loaded = 0;     ///< well-formed records recovered
    std::uint64_t truncated_records = 0;  ///< 1 when a bad tail was dropped
    std::uint64_t appends = 0;            ///< records written this session
  };

  /// Opens (creating if absent) the journal at `path` and recovers every
  /// well-formed record; the file is truncated back to the last good record
  /// so new appends extend a clean prefix. `fresh` discards any existing
  /// content first. Fails on unwritable paths or a foreign/unsupported
  /// header (a journal is never silently reinterpreted).
  static Expected<std::unique_ptr<CheckpointJournal>> open(const std::string& path,
                                                           bool fresh = false);

  /// Appends one record and flushes it to disk. Thread-safe: kernel-pool
  /// threads journal morphology rows while the DAG loop journals node
  /// completions. `kind` must be a single token; `key` and `payload` are
  /// arbitrary bytes.
  Status append(const std::string& kind, const std::string& key,
                std::string payload);

  /// True when a record (kind, key) exists (loaded or appended).
  bool has(const std::string& kind, const std::string& key) const;
  /// Latest payload for (kind, key); nullptr when absent. The pointer stays
  /// valid until the next append to the same key.
  const std::string* find(const std::string& kind, const std::string& key) const;
  /// Visits every (key, payload) of one kind in sorted key order.
  void for_each(const std::string& kind,
                const std::function<void(const std::string& key,
                                         const std::string& payload)>& fn) const;
  /// Number of distinct keys recorded under `kind`.
  std::size_t count(const std::string& kind) const;

  const std::string& path() const { return path_; }
  Stats stats() const;

 private:
  CheckpointJournal() = default;
  Status write_record(const std::string& kind, const std::string& key,
                      const std::string& payload);

  std::string path_;
  mutable std::mutex mutex_;
  /// kind -> key -> latest payload.
  std::map<std::string, std::map<std::string, std::string>> records_;
  Stats stats_;
};

}  // namespace nvo::grid
