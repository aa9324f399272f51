#include "util/fs.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace specure::util {

std::string ensure_dir_writable(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec && !std::filesystem::is_directory(dir)) {
    return "cannot be created: " + ec.message();
  }
  const std::filesystem::path probe =
      std::filesystem::path(dir) / ".specure_write_probe";
  {
    std::ofstream out(probe);
    if (!out) return "is not writable";
  }
  std::filesystem::remove(probe, ec);
  return "";
}

std::string write_file_atomic(const std::string& path,
                              std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return "cannot open '" + tmp + "' for writing: " + std::strerror(errno);
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      out.close();
      std::remove(tmp.c_str());
      return "short write to '" + tmp + "'";
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const std::string reason = std::strerror(errno);
    std::remove(tmp.c_str());
    return "rename '" + tmp + "' -> '" + path + "' failed: " + reason;
  }
  return "";
}

}  // namespace specure::util
