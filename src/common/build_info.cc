#include "common/build_info.h"

#include <cstdlib>

#include "common/logging.h"
#include "common/run_report.h"

// CMake stamps these three onto this translation unit only (see the
// set_source_files_properties block in CMakeLists.txt). Fallbacks keep
// non-CMake builds (e.g. IDE single-file checks) compiling.
#ifndef RANDRECON_GIT_DESCRIBE
#define RANDRECON_GIT_DESCRIBE "unknown"
#endif
#ifndef RANDRECON_BUILD_FLAGS
#define RANDRECON_BUILD_FLAGS "unknown"
#endif
#ifndef RANDRECON_BUILD_TYPE
#define RANDRECON_BUILD_TYPE "unknown"
#endif

namespace randrecon {
namespace {

// Widest SIMD ISA this translation unit was compiled for. The kernels
// are built with the same global flags, so this matches their tile
// width (linalg/simd.h picks its RR_SIMD_BYTES from the same macros).
const char* CompiledSimd() {
#if defined(__AVX512F__)
  return "avx512";
#elif defined(__AVX2__)
  return "avx2";
#elif defined(__SSE2__) || defined(__x86_64__)
  return "sse2";
#else
  return "scalar";
#endif
}

// Mirrors the Philox engine selection in stats/philox.cc exactly
// (including the RANDRECON_NO_SIMD escape hatch). Duplicated here
// rather than calling stats::philox_internal::ActiveEngine() because
// common/ sits below stats/ in the layer map; the agreement is pinned
// by tests/common/build_info_test.cc so the two cannot drift silently.
const char* DispatchSimd() {
#if defined(__x86_64__) || defined(__i386__)
  const char* no_simd = std::getenv("RANDRECON_NO_SIMD");
  if (no_simd == nullptr || no_simd[0] == '\0' || no_simd[0] == '0') {
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512dq")) {
      return "avx512";
    }
    if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
      return "avx2";
    }
  }
#endif
  return "scalar";
}

}  // namespace

const BuildInfo& GetBuildInfo() {
  static const BuildInfo info = [] {
    BuildInfo built;
    built.git_describe = RANDRECON_GIT_DESCRIBE;
    built.compiler = __VERSION__;
    built.flags = RANDRECON_BUILD_FLAGS;
    built.build_type = RANDRECON_BUILD_TYPE;
    built.simd_compiled = CompiledSimd();
    built.simd_dispatch = DispatchSimd();
#ifdef RANDRECON_DISABLE_METRICS
    built.metrics_disabled = true;
#else
    built.metrics_disabled = false;
#endif
    return built;
  }();
  return info;
}

std::string BuildInfoJson() {
  const BuildInfo& info = GetBuildInfo();
  std::string json = "{";
  json.append("\"git_describe\":\"" + report::JsonEscape(info.git_describe) +
              "\"");
  json.append(",\"compiler\":\"" + report::JsonEscape(info.compiler) + "\"");
  json.append(",\"flags\":\"" + report::JsonEscape(info.flags) + "\"");
  json.append(",\"build_type\":\"" + report::JsonEscape(info.build_type) +
              "\"");
  json.append(",\"simd_compiled\":\"" +
              report::JsonEscape(info.simd_compiled) + "\"");
  json.append(",\"simd_dispatch\":\"" +
              report::JsonEscape(info.simd_dispatch) + "\"");
  json.append(",\"metrics_disabled\":");
  json.append(info.metrics_disabled ? "true" : "false");
  json.append("}");
  return json;
}

void LogBuildInfoBanner() {
  const BuildInfo& info = GetBuildInfo();
  RR_LOG(kInfo) << "randrecon " << info.git_describe << " [" << info.build_type
                << "] compiler=" << info.compiler
                << " simd=" << info.simd_compiled << "/" << info.simd_dispatch
                << (info.metrics_disabled ? " metrics=off" : " metrics=on");
}

}  // namespace randrecon
