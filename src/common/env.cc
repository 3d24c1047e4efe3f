#include "common/env.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <utility>

namespace lighttr {
namespace {

/// Production filesystem backend. This translation unit is the single
/// spot in src/ where raw std::filesystem mutation and file streams are
/// legal (the no-direct-persistence lint rule enforces it).
class RealFileSystem : public FileSystem {
 public:
  Status WriteFileAtomic(const std::string& path,
                         const std::string& contents) override {
    // Temp file in the same directory so the final rename never crosses
    // a filesystem boundary (cross-device rename is not atomic). The
    // trunc open clobbers any stale temp from a previous crashed writer.
    const std::string tmp = path + ".tmp";
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      if (!out) return Status::IoError("cannot open for writing: " + tmp);
      out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
      out.flush();
      if (!out) {
        out.close();
        std::error_code ec;
        (void)std::filesystem::remove(tmp, ec);  // hygiene: no partial left
        return Status::IoError("short write to " + tmp);
      }
      out.close();
      if (out.fail()) {
        std::error_code ec;
        (void)std::filesystem::remove(tmp, ec);  // hygiene: no partial left
        return Status::IoError("close failed for " + tmp);
      }
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
      std::error_code rm_ec;
      (void)std::filesystem::remove(tmp, rm_ec);  // hygiene: no orphan temp
      return Status::IoError("cannot rename " + tmp + " -> " + path + ": " +
                             ec.message());
    }
    return Status::Ok();
  }

  Result<std::string> ReadFile(const std::string& path) override {
    std::ifstream in(path, std::ios::binary);
    if (!in) return Status::IoError("cannot open for reading: " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  Result<std::vector<std::string>> ListDir(const std::string& dir) override {
    std::error_code ec;
    if (!std::filesystem::exists(dir, ec) || ec) {
      return Status::NotFound("no such directory: " + dir);
    }
    std::vector<std::string> names;
    for (std::filesystem::directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec)) {
      if (it->is_regular_file(ec)) names.push_back(it->path().filename());
    }
    if (ec) return Status::IoError("cannot list " + dir + ": " + ec.message());
    std::sort(names.begin(), names.end());
    return names;
  }

  Status Remove(const std::string& path) override {
    std::error_code ec;
    (void)std::filesystem::remove(path, ec);  // false (missing) is fine
    if (ec) {
      return Status::IoError("cannot remove " + path + ": " + ec.message());
    }
    return Status::Ok();
  }

  Status CreateDirs(const std::string& dir) override {
    std::error_code ec;
    (void)std::filesystem::create_directories(dir, ec);
    if (ec) {
      return Status::IoError("cannot create " + dir + ": " + ec.message());
    }
    return Status::Ok();
  }

  bool Exists(const std::string& path) override {
    std::error_code ec;
    return std::filesystem::exists(path, ec) && !ec;
  }

  Status SyncAll() override {
    // Stream close-on-success is the durability point the rest of the
    // codebase has always assumed for the real disk; nothing extra here.
    return Status::Ok();
  }
};

/// Parent directory of `path` ("" when the path has no separator; "/"
/// collapses to "" too, which callers treat as always-existing).
std::string ParentDir(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos || slash == 0) return std::string();
  return path.substr(0, slash);
}

}  // namespace

FileSystem* RealFileSystemInstance() {
  static RealFileSystem fs;
  return &fs;
}

// ---------------------------------------------------------------------------
// FaultyFileSystem
// ---------------------------------------------------------------------------

FaultyFileSystem::FaultyFileSystem(const StorageFaultConfig& config)
    : config_(config), rng_(config.seed) {}

bool FaultyFileSystem::ParentExists(const std::string& path) const {
  const std::string parent = ParentDir(path);
  if (parent.empty()) return true;  // cwd-relative or directly under root
  return dirs_.count(parent) > 0;
}

bool FaultyFileSystem::DrawFault(double rate) {
  // Draws are consumed only when the rate is configured on (the same
  // config-only conditionality rule the trainer's RNG forks follow), so
  // the fault schedule is a pure function of (seed, operation sequence).
  if (paused_ || rate <= 0.0) return false;
  return rng_.Bernoulli(rate);
}

void FaultyFileSystem::CleanTemp(const std::string& path) {
  const std::string tmp = path + ".tmp";
  files_.erase(tmp);
  litter_.erase(tmp);
}

Status FaultyFileSystem::WriteFileAtomic(const std::string& path,
                                         const std::string& contents) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!ParentExists(path)) {
    return Status::IoError("cannot open for writing: " + path +
                           ".tmp (no parent directory)");
  }
  // The trunc open of the temp clobbers any stale `<path>.tmp` before
  // fault injection gets a say — even a failing write cleans old litter.
  CleanTemp(path);
  if (DrawFault(config_.enospc_rate)) {
    ++stats_.enospc_failures;
    return Status::IoError("injected ENOSPC writing " + path);
  }
  if (DrawFault(config_.rename_fail_rate)) {
    ++stats_.rename_failures;
    if (leak_tmp_) {
      // Planted-bug mode: the buggy writer forgets to clean its temp.
      // Deliberately NOT registered as injected litter — the chaos
      // orphan-temp invariant must see it as a genuine leak.
      files_[path + ".tmp"].data = contents;
    }
    return Status::IoError("injected rename failure for " + path);
  }
  MemFile& file = files_[path];  // preserves synced contents on rewrite
  file.data = contents;
  litter_.erase(path);
  if (DrawFault(config_.tmp_litter_rate)) {
    // A previous writer "crashed" here long ago: plant a stale partial
    // temp next to the freshly written file. Readers must ignore it and
    // the next writer to this path will clobber it.
    const std::string tmp = path + ".tmp";
    files_[tmp].data = contents.substr(0, contents.size() / 2);
    litter_.insert(tmp);
    ++stats_.tmp_litter_files;
  }
  return Status::Ok();
}

Result<std::string> FaultyFileSystem::ReadFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::IoError("cannot open for reading: " + path);
  }
  std::string data = it->second.data;
  if (bitrot_once_.count(path) > 0) {
    bitrot_once_.erase(path);
    if (!data.empty()) {
      data[data.size() / 2] = static_cast<char>(
          static_cast<unsigned char>(data[data.size() / 2]) ^ 1u);
      ++stats_.bitrot_reads;
    }
    return data;
  }
  if (!data.empty() && DrawFault(config_.read_bitrot_rate)) {
    const size_t pos = static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(data.size()) - 1));
    const int bit = static_cast<int>(rng_.UniformInt(0, 7));
    data[pos] = static_cast<char>(static_cast<unsigned char>(data[pos]) ^
                                  (1u << bit));
    ++stats_.bitrot_reads;
  }
  return data;
}

Result<std::vector<std::string>> FaultyFileSystem::ListDir(
    const std::string& dir) {
  std::lock_guard<std::mutex> lock(mu_);
  if (dirs_.count(dir) == 0) {
    return Status::NotFound("no such directory: " + dir);
  }
  std::vector<std::string> names;  // map order => already sorted
  for (const auto& [path, file] : files_) {
    (void)file;
    if (ParentDir(path) == dir) {
      names.push_back(path.substr(dir.size() + 1));
    }
  }
  return names;
}

Status FaultyFileSystem::Remove(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  files_.erase(path);
  litter_.erase(path);
  return Status::Ok();
}

Status FaultyFileSystem::CreateDirs(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mu_);
  // Register every ancestor so ParentExists sees the full chain.
  std::string prefix;
  size_t start = 0;
  while (start <= dir.size()) {
    const size_t slash = dir.find('/', start);
    const size_t end = (slash == std::string::npos) ? dir.size() : slash;
    if (end > start) {
      prefix = dir.substr(0, end);
      dirs_.insert(prefix);
    }
    if (slash == std::string::npos) break;
    start = slash + 1;
  }
  return Status::Ok();
}

bool FaultyFileSystem::Exists(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.count(path) > 0 || dirs_.count(path) > 0;
}

Status FaultyFileSystem::SyncAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [path, file] : files_) {
    (void)path;
    file.synced = file.data;
    file.ever_synced = true;
  }
  return Status::Ok();
}

void FaultyFileSystem::SimulateCrash() {
  std::lock_guard<std::mutex> lock(mu_);
  if (!config_.lose_unsynced_on_crash) return;
  for (auto it = files_.begin(); it != files_.end();) {
    MemFile& file = it->second;
    if (!file.ever_synced) {
      litter_.erase(it->first);
      it = files_.erase(it);
      ++stats_.crash_lost_files;
      continue;
    }
    if (file.data != file.synced) {
      file.data = file.synced;
      ++stats_.crash_reverted_files;
    }
    ++it;
  }
}

StorageFaultStats FaultyFileSystem::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::vector<std::string> FaultyFileSystem::AllFiles() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> paths;
  paths.reserve(files_.size());
  for (const auto& [path, file] : files_) {
    (void)file;
    paths.push_back(path);
  }
  return paths;
}

bool FaultyFileSystem::IsInjectedLitter(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return litter_.count(path) > 0;
}

void FaultyFileSystem::InjectBitrotOnce(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  bitrot_once_.insert(path);
}

void FaultyFileSystem::set_faults_paused(bool paused) {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = paused;
}

}  // namespace lighttr
