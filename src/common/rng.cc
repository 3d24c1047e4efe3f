#include "common/rng.h"

#include <numeric>
#include <sstream>

namespace lighttr {

std::string Rng::SerializeState() const {
  // std::mt19937_64 defines textual stream (de)serialization of its
  // full internal state; the text round-trips exactly.
  std::ostringstream os;
  os << engine_;
  return os.str();
}

Status Rng::DeserializeState(const std::string& state) {
  std::istringstream is(state);
  std::mt19937_64 restored;
  is >> restored;
  if (is.fail()) {
    return Status::InvalidArgument("malformed RNG state string");
  }
  engine_ = restored;
  return Status::Ok();
}

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  LIGHTTR_CHECK_LE(k, n);
  std::vector<size_t> indices(n);
  std::iota(indices.begin(), indices.end(), 0);
  // Partial Fisher-Yates: only the first k positions need shuffling.
  for (size_t i = 0; i < k; ++i) {
    size_t j = static_cast<size_t>(UniformInt(static_cast<int64_t>(i),
                                              static_cast<int64_t>(n - 1)));
    std::swap(indices[i], indices[j]);
  }
  indices.resize(k);
  return indices;
}

}  // namespace lighttr
