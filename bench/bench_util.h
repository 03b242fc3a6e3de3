#ifndef FEWSTATE_BENCH_BENCH_UTIL_H_
#define FEWSTATE_BENCH_BENCH_UTIL_H_

// Shared table-printing helpers for the experiment binaries. Each bench
// regenerates one paper artefact (a table, a theorem's scaling claim, or a
// motivation quantity) and prints paper-style rows; EXPERIMENTS.md records
// the paper-vs-measured comparison.

#include <cstdarg>
#include <cstdio>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

namespace fewstate::bench {

/// Prints a banner naming the experiment and the paper artefact.
inline void Banner(const char* experiment, const char* artefact,
                   const char* claim) {
  std::printf("==============================================================================\n");
  std::printf("%s — reproduces %s\n", experiment, artefact);
  std::printf("paper claim: %s\n", claim);
  std::printf("==============================================================================\n");
}

/// printf-style row helper (just forwards; exists so call sites read as
/// table rows).
inline void Row(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
}

inline void Section(const char* title) {
  std::printf("\n--- %s ---\n", title);
}

/// Machine-readable output: every line of `csv` (e.g. from
/// `ShardedRunReport::ToCsv`) is printed prefixed
/// with "CSV," so a whole trajectory can be scraped out of mixed bench
/// output with `grep '^CSV,' | cut -d, -f2-`.
inline void CsvBlock(const std::string& csv) {
  size_t begin = 0;
  while (begin < csv.size()) {
    size_t end = csv.find('\n', begin);
    if (end == std::string::npos) end = csv.size();
    if (end > begin) {
      std::printf("CSV,%.*s\n", static_cast<int>(end - begin),
                  csv.data() + begin);
    }
    begin = end + 1;
  }
}

/// Emits the shared report column header as a CSV line (call once, before
/// the sweep's `CsvBlock` rows).
inline void CsvHeader(const std::string& header) {
  CsvBlock(header + "\n");
}

/// Peak resident set size of this process so far, in MiB (0.0 where
/// getrusage is unavailable). A high-water mark, not a gauge — it proves
/// constant-memory ingest by *not* growing with stream length.
inline double PeakRssMiB() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
#if defined(__APPLE__)
  return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);  // bytes
#else
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
#endif
#else
  return 0.0;
#endif
}

}  // namespace fewstate::bench

#endif  // FEWSTATE_BENCH_BENCH_UTIL_H_
