// Filesystem helpers shared by the output-directory producers (VCD
// export, triage bundles), the durable-state writers and the CLI.
#pragma once

#include <string>
#include <string_view>

namespace specure::util {

/// Create `dir` (mkdir -p semantics) and probe it for writability with a
/// throwaway file. Returns "" on success, else a human-readable reason
/// ("cannot be created: ...", "is not writable") for the caller to wrap
/// in its own error type.
std::string ensure_dir_writable(const std::string& dir);

/// Replace `path` with `bytes` atomically: write `path` + ".tmp", then
/// rename it over `path`, so a crash leaves the old file or the new one,
/// never a torn one (no fsync: this survives a killed process, not a
/// power cut). Returns "" on success, else a human-readable reason; the
/// temp file is removed on failure.
std::string write_file_atomic(const std::string& path, std::string_view bytes);

}  // namespace specure::util
