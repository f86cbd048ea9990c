#include "grid/checkpoint.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/rng.hpp"
#include "common/strings.hpp"

namespace nvo::grid {

namespace {

constexpr const char kHeader[] = "NVOCKPT 1";

}  // namespace

Expected<std::unique_ptr<CheckpointJournal>> CheckpointJournal::open(
    const std::string& path, bool fresh) {
  auto journal = std::unique_ptr<CheckpointJournal>(new CheckpointJournal());
  journal->path_ = path;

  std::string content;
  if (!fresh) {
    std::ifstream in(path, std::ios::binary);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      content = buf.str();
    }
  }

  std::size_t good_end = 0;  // byte offset of the last well-formed record
  if (!content.empty()) {
    const std::size_t header_end = content.find('\n');
    if (header_end == std::string::npos ||
        content.substr(0, header_end) != kHeader) {
      return Error(ErrorCode::kParseError,
                   path + " is not a checkpoint journal (bad header)");
    }
    good_end = header_end + 1;
    std::size_t pos = good_end;
    while (pos < content.size()) {
      const std::size_t line_end = content.find('\n', pos);
      if (line_end == std::string::npos) break;  // truncated record line
      std::istringstream line(content.substr(pos, line_end - pos));
      std::string tag, kind, key_enc, digest_hex;
      std::size_t len = 0;
      if (!(line >> tag >> kind >> key_enc >> len >> digest_hex) ||
          tag != "rec") {
        break;  // malformed framing: stop at the last good record
      }
      const std::size_t payload_start = line_end + 1;
      // The payload is followed by a record-terminating '\n'.
      if (payload_start + len + 1 > content.size() ||
          content[payload_start + len] != '\n') {
        break;  // short write: the kill arrived mid-record
      }
      std::string payload = content.substr(payload_start, len);
      std::uint64_t want = 0;
      if (!parse_hex_u64(digest_hex, want) || hash64(payload) != want) {
        break;  // checksum mismatch: torn or corrupted tail
      }
      journal->records_[kind][unescape_field(key_enc)] = std::move(payload);
      ++journal->stats_.records_loaded;
      pos = payload_start + len + 1;
      good_end = pos;
    }
    if (good_end < content.size()) {
      journal->stats_.truncated_records = 1;
    }
  }

  std::error_code ec;
  if (content.empty()) {
    // New (or deliberately fresh) journal: write the header.
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Error(ErrorCode::kIoError, "cannot create journal at " + path);
    }
    out << kHeader << '\n';
    out.flush();
    if (!out) return Error(ErrorCode::kIoError, "cannot write journal header");
  } else if (good_end < content.size()) {
    // Drop the torn tail so appends extend a clean, parseable prefix.
    std::filesystem::resize_file(path, good_end, ec);
    if (ec) {
      return Error(ErrorCode::kIoError,
                   "cannot truncate torn journal tail: " + ec.message());
    }
  }
  return journal;
}

Status CheckpointJournal::write_record(const std::string& kind,
                                       const std::string& key,
                                       const std::string& payload) {
  std::ofstream out(path_, std::ios::binary | std::ios::app);
  if (!out) return Error(ErrorCode::kIoError, "cannot append to " + path_);
  // The loader splits header lines on any whitespace; escape_field covers
  // every byte <= 0x20, so no key can break the framing.
  out << "rec " << kind << ' ' << escape_field(key) << ' ' << payload.size() << ' '
      << hex_u64(hash64(payload)) << '\n';
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  out << '\n';
  out.flush();
  if (!out) return Error(ErrorCode::kIoError, "short write to " + path_);
  return Status::Ok();
}

Status CheckpointJournal::append(const std::string& kind, const std::string& key,
                                 std::string payload) {
  std::lock_guard lock(mutex_);
  if (const Status s = write_record(kind, key, payload); !s.ok()) return s;
  records_[kind][key] = std::move(payload);
  ++stats_.appends;
  return Status::Ok();
}

bool CheckpointJournal::has(const std::string& kind, const std::string& key) const {
  return find(kind, key) != nullptr;
}

const std::string* CheckpointJournal::find(const std::string& kind,
                                           const std::string& key) const {
  std::lock_guard lock(mutex_);
  const auto k = records_.find(kind);
  if (k == records_.end()) return nullptr;
  const auto it = k->second.find(key);
  return it == k->second.end() ? nullptr : &it->second;
}

void CheckpointJournal::for_each(
    const std::string& kind,
    const std::function<void(const std::string&, const std::string&)>& fn) const {
  std::lock_guard lock(mutex_);
  const auto k = records_.find(kind);
  if (k == records_.end()) return;
  for (const auto& [key, payload] : k->second) fn(key, payload);
}

std::size_t CheckpointJournal::count(const std::string& kind) const {
  std::lock_guard lock(mutex_);
  const auto k = records_.find(kind);
  return k == records_.end() ? 0 : k->second.size();
}

CheckpointJournal::Stats CheckpointJournal::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

}  // namespace nvo::grid
