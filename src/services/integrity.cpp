#include "services/integrity.hpp"

#include "common/rng.hpp"

namespace nvo::services::integrity {

std::uint64_t content_digest(const std::uint8_t* data, std::size_t n) {
  return hash64(reinterpret_cast<const char*>(data), n);
}

std::uint64_t content_digest(const std::vector<std::uint8_t>& bytes) {
  return content_digest(bytes.data(), bytes.size());
}

std::uint64_t bind_digest(std::uint64_t content, const std::string& canonical_url) {
  // splitmix64 finalization over the (content, binding) pair: a single-bit
  // change in either input flips roughly half the output bits, and the
  // result is never the "unsigned" sentinel by accident in practice.
  std::uint64_t state = content ^ (hash64(canonical_url) + 0x9e3779b97f4a7c15ull);
  const std::uint64_t mixed = splitmix64(state);
  return mixed == 0 ? 0x9e3779b97f4a7c15ull : mixed;
}

std::uint64_t sign_payload(const std::vector<std::uint8_t>& body, const Url& url) {
  return bind_digest(content_digest(body), url.to_string());
}

bool payload_mismatch(const HttpResponse& response, const Url& url) {
  if (response.digest == 0) return false;  // unsigned fixture response
  return sign_payload(response.body, url) != response.digest;
}

std::string resource_key(const Url& url) { return url.path; }

void QuarantineList::quarantine(const std::string& endpoint,
                                const std::string& resource, double now_ms,
                                double duration_ms) {
  until_ms_[{endpoint, resource}] = now_ms + duration_ms;
  ++stats_.quarantines;
}

bool QuarantineList::is_quarantined(const std::string& endpoint,
                                    const std::string& resource,
                                    double now_ms) const {
  const auto it = until_ms_.find({endpoint, resource});
  if (it == until_ms_.end()) return false;
  if (now_ms >= it->second) {
    until_ms_.erase(it);  // lazy expiry on the simulated clock
    return false;
  }
  return true;
}

void QuarantineList::release(const std::string& endpoint,
                             const std::string& resource) {
  if (until_ms_.erase({endpoint, resource}) > 0) ++stats_.releases;
}

std::size_t QuarantineList::active(double now_ms) const {
  std::size_t n = 0;
  for (auto it = until_ms_.begin(); it != until_ms_.end();) {
    if (now_ms >= it->second) {
      it = until_ms_.erase(it);
    } else {
      ++n;
      ++it;
    }
  }
  return n;
}

}  // namespace nvo::services::integrity
