#!/usr/bin/env bash
# Repository lint gates: grep/awk checks over the sources and docs that
# need no build and no formatter. Run by scripts/check.sh and by CI.
set -euo pipefail

cd "$(dirname "$0")/.."

# Ingestion-API gate: benches and examples must pull through an
# `ItemSource` (`engine.Run(source)` / `alg.Drain(source)`). A direct
# `Consume(<stream>)` call is the legacy materialized path — it caps
# stream length at RAM and must not creep back into the drivers. (Tests
# may use Consume freely; it is the VectorSource shim they exercise.)
if grep -rnE '(\.|->)Consume\(' bench examples; then
  echo "lint.sh: direct Consume() in bench/ or examples/ — ingest via an ItemSource (Run/Drain) instead" >&2
  exit 1
fi

# Write-accounting gate: benches and examples must route write pricing
# through the WriteSink pipeline (`set_write_sink` with a WriteLog /
# LiveNvmSink / TeeSink). `set_write_log` was the log-only seam; it no
# longer exists and must not creep back as a bypass.
if grep -rnE 'set_write_log\(' bench examples; then
  echo "lint.sh: set_write_log() in bench/ or examples/ — attach sinks via set_write_sink() (WriteSink pipeline) instead" >&2
  exit 1
fi

# One-engine gate: `ShardedEngine` is the only engine; the single-stream
# driver is its S=1 configuration. The deleted `StreamEngine` (and its
# header) must not creep back as a second engine over the same drain core.
if grep -rnE '\bStreamEngine\b|api/stream_engine\.h' src bench examples tests; then
  echo "lint.sh: StreamEngine in src/, bench/, examples/ or tests/ — run single-stream work on a shards=1 ShardedEngine instead" >&2
  exit 1
fi

# Deleted-surface gate: epoch ownership follows the accountant (a
# structure that owns its accountant opens one epoch per item; one handed
# a shared accountant leaves the epochs to its owner), and options,
# triggers and adapters that no workload, bench or example drove are gone.
# A shard serves one roster per batch boundary, so per-sketch serving
# slots and a separate progress counter are gone too, as is the second
# producer/consumer ring beside the engine's batch queues. None of them
# may come back as a second way to do the same thing.
if grep -rnE '\bmanage_epochs\b|\buse_full_sample_and_hold\b|\b(ConcatSource|InterleaveSource)\b|\bkDirtyWords\b|\bDirtyWords\(|\bpartition_seed\b|\bSketchServingSlots\b|\bshard_progress_|\bserving_slot\b|\bPrefetchSource\b' src bench examples tests; then
  echo "lint.sh: deleted surface (manage_epochs, use_full_sample_and_hold, ConcatSource/InterleaveSource, kDirtyWords/DirtyWords(), partition_seed, SketchServingSlots, shard_progress_, serving_slot, PrefetchSource) in src/, bench/, examples/ or tests/ — derive it, or keep it deleted" >&2
  exit 1
fi

# Batch-drain gate: the drain loops feed sketches through `UpdateBatch`
# (the vectorized hot path). `ReplicaPipeline::Drain` is the only engine
# drain loop; item_source.cc holds the single-sketch `Drain`. A per-item
# `->Update(` call in either file is the scalar path creeping back into
# the hot loop (sketches without a kernel already get the per-item loop
# from the `UpdateBatch` default).
batch_gate_failed=0
for drain_file in src/api/replica_pipeline.cc src/api/item_source.cc; do
  if ! grep -q 'UpdateBatch(' "$drain_file"; then
    echo "lint.sh: $drain_file no longer drains through UpdateBatch() — the batch hot path is gone" >&2
    batch_gate_failed=1
  fi
  if grep -n -- '->Update(' "$drain_file" >&2; then
    echo "lint.sh: per-item Update() in engine drain file $drain_file — drain through UpdateBatch() instead" >&2
    batch_gate_failed=1
  fi
done
if [ "$batch_gate_failed" -ne 0 ]; then
  exit 1
fi

# Sink-span gate: `StateAccountant::ApplyBatch` hands each flushed batch
# to the sink as one `OnWriteSpan` call, so sinks resolve their dispatch
# (tee fan-out, wear-leveling scheme) once per batch instead of once per
# word. A per-record `OnWrite` replay loop in ApplyBatch is the per-word
# virtual chain creeping back into the batch hot path.
apply_batch=$(awk '
  /void ApplyBatch\(/ { inside = 1 }
  inside { print }
  inside && /^  }$/ { exit }
' src/state/state_accountant.h)
if [ -z "$apply_batch" ]; then
  echo "lint.sh: StateAccountant::ApplyBatch not found in src/state/state_accountant.h" >&2
  exit 1
fi
if ! printf '%s\n' "$apply_batch" | grep -q 'OnWriteSpan('; then
  echo "lint.sh: StateAccountant::ApplyBatch no longer calls OnWriteSpan() — deliver each batch to the sink as one span" >&2
  exit 1
fi
if printf '%s\n' "$apply_batch" | grep -n 'OnWrite(' >&2; then
  echo "lint.sh: per-record OnWrite() in StateAccountant::ApplyBatch — replay the batch through one OnWriteSpan() instead" >&2
  exit 1
fi

# Grid-span gate: CountMin (non-conservative) and CountSketch settle each
# chunk with `BatchUpdateScratch::AllChangedRows`, which lays out a sink's
# program-order span straight from the index rows, so their table sweep
# stays row-major with or without a sink. The aggregate-only
# `AllChanged(` settle, or a `BeginItem(` in CountSketch or in CountMin
# outside its conservative branch, is the per-word arrival-order loop
# creeping back.
if grep -rnE '\bAllChanged\(' src >&2; then
  echo "lint.sh: AllChanged() in src/ — settle grid kernels with AllChangedRows() so the sink span is filled from the index rows" >&2
  exit 1
fi
if grep -n 'BeginItem(' src/baselines/count_sketch.cc >&2; then
  echo "lint.sh: BeginItem() in src/baselines/count_sketch.cc — settle with AllChangedRows() and sweep row-major instead" >&2
  exit 1
fi
count_min_items=$(awk '
  /^[[:space:]]*if \(conservative_\) \{$/ {
    inside = 1
    indent = $0
    sub(/if.*/, "", indent)
    next
  }
  inside && index($0, indent "}") == 1 { inside = 0 }
  /BeginItem\(/ && !inside { print FILENAME ":" FNR ": " $0 }
' src/baselines/count_min.cc)
if [ -n "$count_min_items" ]; then
  echo "lint.sh: BeginItem() outside CountMin's conservative branch — settle the plain kernel with AllChangedRows() instead:" >&2
  echo "$count_min_items" >&2
  exit 1
fi

# Cache-lookup gate: `CacheSpec::Validate` requires power-of-two `sets`
# and `line_words`, so `CacheTier` takes a word's offset, tag and set from
# precomputed shifts and masks. A division or modulo by `line_words` or
# `sets` in src/nvm/cache_tier.{h,cc} (comments aside) is the per-word
# 64-bit division creeping back into the cached write path.
cache_division=$(awk '
  {
    line = $0
    sub(/\/\/.*/, "", line)
    if (line ~ /[\/%]=?[[:space:]]*\(?[[:space:]]*([A-Za-z_][A-Za-z0-9_]*(\.|->))*(line_words|sets)_?([^A-Za-z0-9_]|$)/) {
      print FILENAME ":" FNR ": " $0
    }
  }
' src/nvm/cache_tier.h src/nvm/cache_tier.cc)
if [ -n "$cache_division" ]; then
  echo "lint.sh: division or modulo by line_words/sets in the cache tier — index by the precomputed shifts and masks instead:" >&2
  echo "$cache_division" >&2
  exit 1
fi

# Shared-state gate: `ReplicaPipeline::Drain` runs a shard's replicas on
# parallel lanes, which is only sound while replicas share no mutable
# state. Below the `Sketch` API (src/{baselines,core,counters,state,nvm,
# common}) a non-const `static` variable, at function or class scope, or
# a non-const variable at namespace scope (column 0), would be that
# shared state. Functions and const/constexpr data are fine. The one
# allowlisted cache, `StableSketch::MedianAbsPStable`'s p -> scale map,
# is guarded by its own mutex.
shared_state=$(awk '
  # Enclosing function: the last column-0 line opening a definition.
  /^[A-Za-z].*\(/ && $0 !~ /;[[:space:]]*$/ { fn = $0 }
  {
    line = $0
    sub(/\/\/.*/, "", line)
    decl = ""
    if (line ~ /^[[:space:]]*static[[:space:]]/) {
      decl = line
      sub(/^[[:space:]]*static[[:space:]]+/, "", decl)
    } else if (line ~ /^[A-Za-z_]/ && (line ~ /;[[:space:]]*$/ || line ~ /=/) &&
               line !~ /^(namespace|class|struct|union|enum|using|typedef|template|extern "C")[[:space:]]/) {
      decl = line
    }
    if (decl == "") next
    if (decl ~ /^(inline[[:space:]]+)?(const|constexpr)[[:space:]]/) next
    head = decl
    sub(/[=;{].*/, "", head)
    if (head ~ /\(/) next  # a function declaration or definition
    if (head ~ /[[:space:]]const[[:space:]]/) next  # e.g. `T const kX`
    if (fn ~ /StableSketch::MedianAbsPStable\(/) next
    print FILENAME ":" FNR ": " $0
  }
' $(find src/baselines src/core src/counters src/state src/nvm src/common \
      -name '*.h' -o -name '*.cc' | sort))
if [ -n "$shared_state" ]; then
  echo "lint.sh: mutable static or namespace-scope state below the Sketch API — replicas drained on parallel lanes must share no mutable state:" >&2
  echo "$shared_state" >&2
  exit 1
fi

# Source-error gate: a `FileSource` or `SocketSource` constructed in
# examples/ must have its error channel consulted in the same file
# (`.ok()` or `.status()`). An unopenable trace — or a lossy, truncated,
# or cut network stream — must be a reported failure, never an empty or
# short workload that silently "succeeds".
source_gate_failed=0
while IFS=: read -r file line decl; do
  var=$(printf '%s' "$decl" | sed -nE 's/.*(File|Socket)Source[[:space:]]+([A-Za-z_][A-Za-z0-9_]*)[[:space:]]*[({].*/\2/p')
  [ -n "$var" ] || continue
  if ! grep -qE "\b${var}\.(ok|status)\(" "$file"; then
    echo "lint.sh: $file:$line constructs a source '$var' without checking ${var}.ok()/${var}.status() — a bad trace path or lossy stream must fail loudly" >&2
    source_gate_failed=1
  fi
done < <(grep -rnE '\b(File|Socket)Source[[:space:]]+[A-Za-z_][A-Za-z0-9_]*[[:space:]]*[({]' examples || true)
if [ "$source_gate_failed" -ne 0 ]; then
  exit 1
fi

# Cache-baseline gate: any bench or example that builds a *cached* NvmSpec
# (assigning `.cache.sets` / `.cache =`) must also run and print the
# uncached control in the same file — a cache-tier wear number without its
# uncached baseline next to it is unreviewable. Grep-level: the file must
# mention "uncached" somewhere (a label, a control row, a comment naming
# the control run).
cache_gate_failed=0
while IFS=: read -r file line _; do
  if ! grep -qi 'uncached' "$file"; then
    echo "lint.sh: $file:$line configures a cached NvmSpec but the file never runs/prints an uncached control — emit the baseline alongside" >&2
    cache_gate_failed=1
  fi
done < <(grep -rnE '\.cache(\.sets[[:space:]]*=|[[:space:]]*=)' bench examples || true)
if [ "$cache_gate_failed" -ne 0 ]; then
  exit 1
fi

# Docs gate 1: every src/ subsystem directory must appear in the README
# and docs/ARCHITECTURE.md subsystem tables — a new subsystem lands with
# its documentation or not at all.
for dir in src/*/; do
  subsystem="${dir%/}"
  for doc in README.md docs/ARCHITECTURE.md; do
    if ! grep -q "$subsystem" "$doc"; then
      echo "lint.sh: $subsystem missing from $doc — add it to the subsystem table" >&2
      exit 1
    fi
  done
done

# Docs gate 2: Doxygen-contract lint (no doxygen binary needed). Every
# exported class/struct in the public API headers must carry a `///`
# contract comment immediately above it (a template<> line may sit in
# between). Forward declarations (ending in ';') are exempt.
doc_lint_failed=0
for header in src/api/*.h src/state/*.h src/nvm/*.h src/shard/*.h src/recover/*.h src/obs/*.h src/net/*.h; do
  bad=$(awk '
    /^(class|struct) [A-Z]/ && $0 !~ /;[[:space:]]*$/ {
      if (p1 !~ /^\/\/\// && !(p1 ~ /^template/ && p2 ~ /^\/\/\//)) {
        print FILENAME ":" FNR ": " $0
      }
    }
    { p2 = p1; p1 = $0 }
  ' "$header")
  if [ -n "$bad" ]; then
    echo "lint.sh: exported type without a /// contract comment:" >&2
    echo "$bad" >&2
    doc_lint_failed=1
  fi
done
if [ "$doc_lint_failed" -ne 0 ]; then
  exit 1
fi

# Docs gate 3: every metric name string used in src/ must have a row in
# the docs/OBSERVABILITY.md catalogue — an undocumented metric is a
# dashboard nobody can read. (Names are literal "fewstate_*" strings;
# dynamic name construction is deliberately not used in src/.)
metric_gate_failed=0
for metric in $(grep -rhoE '"fewstate_[a-z0-9_]+"' src | tr -d '"' | sort -u); do
  if ! grep -q "\`${metric}\`" docs/OBSERVABILITY.md; then
    echo "lint.sh: metric ${metric} used in src/ but missing from the docs/OBSERVABILITY.md catalogue" >&2
    metric_gate_failed=1
  fi
done
if [ "$metric_gate_failed" -ne 0 ]; then
  exit 1
fi
