#include "serve/campaign_store.hpp"

#include <dirent.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "serve/state_io.hpp"
#include "util/fs.hpp"

namespace specure::serve {

CampaignStore::CampaignStore(std::string root) : root_(std::move(root)) {
  const std::string reason = util::ensure_dir_writable(root_);
  if (!reason.empty()) {
    throw StateError("campaign store root '" + root_ + "' " + reason);
  }
}

std::string CampaignStore::create(const core::CampaignSpec& spec) {
  // Next dense id: one past the highest existing one (ids are never
  // reused, so a cancelled campaign's directory still claims its slot).
  unsigned next = 1;
  for (const std::string& id : ids()) {
    const unsigned n =
        static_cast<unsigned>(std::strtoul(id.c_str() + 1, nullptr, 10));
    next = std::max(next, n + 1);
  }
  char buf[16];
  std::snprintf(buf, sizeof(buf), "c%04u", next);
  const std::string id = buf;

  const std::string reason = util::ensure_dir_writable(dir(id));
  if (!reason.empty()) {
    throw StateError("campaign directory '" + dir(id) + "' " + reason);
  }
  spec.save(spec_path(id));
  write_status(id, "queued");
  return id;
}

std::vector<std::string> CampaignStore::ids() const {
  std::vector<std::string> out;
  DIR* d = ::opendir(root_.c_str());
  if (d == nullptr) return out;
  while (dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    // A campaign dir is 'c' + digits, nothing else.
    if (name.size() < 2 || name[0] != 'c') continue;
    if (name.find_first_not_of("0123456789", 1) != std::string::npos) continue;
    out.push_back(name);
  }
  ::closedir(d);
  std::sort(out.begin(), out.end());
  return out;
}

bool CampaignStore::exists(const std::string& id) const {
  std::ifstream spec(spec_path(id));
  return static_cast<bool>(spec);
}

void CampaignStore::write_status(const std::string& id,
                                 const std::string& status) const {
  const std::string reason =
      util::write_file_atomic(status_path(id), status + "\n");
  if (!reason.empty()) {
    throw StateError("cannot write the status file of '" + id + "': " +
                     reason);
  }
}

std::string CampaignStore::read_status(const std::string& id) const {
  std::ifstream in(status_path(id));
  std::string line;
  if (!in || !std::getline(in, line)) return "";
  return line;
}

}  // namespace specure::serve
