// The build-provenance stamp embedded in every machine-readable output
// (`kairos_cli --version`, `--front-csv` headers, Chrome trace JSON,
// benchmark results), so a perf number or a dumped front can always be tied
// back to the exact commit, compiler and flags that produced it.
//
// The values are injected by CMake as compile definitions on this
// translation unit only (so a new git SHA re-compiles one file, not the
// library); a build outside CMake degrades to "unknown" fields instead of
// failing.
#pragma once

#include <string>

namespace kairos::obs {

struct BuildInfo {
  std::string git_sha;     ///< short commit hash at configure time
  std::string compiler;    ///< e.g. "GNU 13.2.0"
  std::string build_type;  ///< e.g. "RelWithDebInfo"
  std::string flags;       ///< extra CXX flags the build was configured with
};

/// The stamp of this binary's build.
const BuildInfo& build_info();

/// One-line human-readable form: "kairos <sha> (<compiler>, <build_type>,
/// flags: <flags>)" — what --version prints and CSV headers embed.
std::string build_info_line();

}  // namespace kairos::obs
