#!/usr/bin/env bash
# Product-surface gate: every out-of-line autodml:: function that src/
# defines must be linked into at least one product binary, or be listed in
# scripts/product_surface_allowlist.txt with a reason (DESIGN.md 6n).
#
#   scripts/check_product_surface.sh
#
# Product binaries are the executables that examples/, tools/ and bench/
# define, plus `perfbench` and `perfbench_selftest` from the perfbench/
# project. Everything is built at -O0 -fno-inline with one section per
# function and linked with --gc-sections, so a function that no product
# code path reaches is absent from every binary. The main project builds
# in build-surface/, perfbench in build-surface-perfbench/; nothing is
# written to the source tree.
#
# Exits 1, naming the symbols, when
#   - a library function is in no product binary and not allowlisted;
#   - an allowlist entry is stale: a product binary now links it, or src/
#     no longer defines it;
#   - an allowlist entry lacks one of the reasons `oracle: <test>`,
#     `hook: <test>`, `fixture: <test>` or `reserved: ROADMAP item N`, or
#     names a test file that does not exist.
#
# Environment:
#   JOBS=N   parallelism (default: nproc)
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
BUILD=build-surface
PERFBENCH_BUILD=build-surface-perfbench
ALLOWLIST=scripts/product_surface_allowlist.txt

# A build type of its own, so that no -O2 from Release or RelWithDebInfo
# follows these flags on the command line.
FLAGS=(-DCMAKE_BUILD_TYPE=ProductSurface
       "-DCMAKE_CXX_FLAGS=-O0 -fno-inline -ffunction-sections -fdata-sections -DNDEBUG"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

targets=()
binaries=()
for dir in examples tools bench; do
  for t in $(sed -nE \
      's/^(autodml_example|autodml_bench|add_executable)\(([A-Za-z0-9_-]+)[ )].*/\2/p' \
      "${dir}/CMakeLists.txt"); do
    targets+=("${t}")
    binaries+=("${BUILD}/${dir}/${t}")
  done
done
binaries+=("${PERFBENCH_BUILD}/perfbench" "${PERFBENCH_BUILD}/perfbench_selftest")

echo "==== build ${#targets[@]} product binaries in ${BUILD}"
cmake -B "${BUILD}" -S . "${FLAGS[@]}" >/dev/null
cmake --build "${BUILD}" -j "${JOBS}" --target "${targets[@]}" | tail -n 1
echo "==== build perfbench in ${PERFBENCH_BUILD}"
cmake -B "${PERFBENCH_BUILD}" -S perfbench "${FLAGS[@]}" >/dev/null
cmake --build "${PERFBENCH_BUILD}" -j "${JOBS}" \
  --target perfbench perfbench_selftest | tail -n 1

for b in "${binaries[@]}"; do
  [[ -x "${b}" ]] || { echo "ERROR: product binary '${b}' not built" >&2; exit 1; }
done

# Demangled names of the autodml:: functions that the given files define
# with one of the nm symbol types in $1, one per line, sorted and
# deduplicated. In the archives only strong global text symbols (T) count:
# those are the functions defined out of line in a .cpp file. Inline
# functions, implicit members and template instantiations are weak (W),
# and file-local functions and lambdas are local (t).
functions() {
  local types=$1
  shift
  nm -C --defined-only "$@" 2>/dev/null |
    sed -nE "s/^[0-9a-f]+ [${types}] (autodml::.*)\$/\1/p" | LC_ALL=C sort -u
}

work=$(mktemp -d)
trap 'rm -rf "${work}"' EXIT
mapfile -t archives < <(find "${BUILD}/src" -name 'libautodml_*.a' | sort)
functions T "${archives[@]}" >"${work}/library"
functions TtWw "${binaries[@]}" >"${work}/linked"
LC_ALL=C comm -23 "${work}/library" "${work}/linked" >"${work}/unlinked"

status=0
test_re='^(oracle|hook|fixture): (tests/[A-Za-z0-9_./-]+)( \(.*\))?$'
reserved_re='^reserved: ROADMAP item [0-9]+$'
: >"${work}/allowed"
while IFS= read -r line; do
  [[ -z "${line}" || "${line}" == \#* ]] && continue
  symbol="${line%%$'\t'*}"
  reason="${line#*$'\t'}"
  if [[ "${symbol}" == "${line}" ]]; then
    echo "allowlist: no <TAB><reason>: ${line}"
    status=1
  elif [[ "${reason}" =~ ${test_re} ]]; then
    if [[ ! -f "${BASH_REMATCH[2]}" ]]; then
      echo "allowlist: ${BASH_REMATCH[2]} does not exist: ${line}"
      status=1
    fi
  elif ! [[ "${reason}" =~ ${reserved_re} ]]; then
    echo "allowlist: reason is not oracle/hook/fixture/reserved: ${line}"
    status=1
  fi
  printf '%s\n' "${symbol}" >>"${work}/allowed"
done <"${ALLOWLIST}"
LC_ALL=C sort -u -o "${work}/allowed" "${work}/allowed"

report() {
  local title=$1 file=$2
  [[ -s "${file}" ]] || return 0
  echo "${title} ($(wc -l <"${file}")):"
  sed 's/^/  /' "${file}"
  status=1
}
LC_ALL=C comm -23 "${work}/unlinked" "${work}/allowed" >"${work}/new"
LC_ALL=C comm -12 "${work}/allowed" "${work}/linked" >"${work}/now_linked"
LC_ALL=C comm -23 "${work}/allowed" "${work}/library" >"${work}/undefined"
report "in no product binary and not allowlisted" "${work}/new"
report "allowlisted but linked by a product binary (drop the entry)" "${work}/now_linked"
report "allowlisted but no longer defined in src/ (drop the entry)" "${work}/undefined"

echo "==== $(wc -l <"${work}/library") library functions," \
     "$(wc -l <"${work}/unlinked") in no product binary," \
     "$(wc -l <"${work}/allowed") allowlisted"
if [[ ${status} -ne 0 ]]; then
  echo "PRODUCT SURFACE CHECK FAILED"
  exit 1
fi
echo "PRODUCT SURFACE CHECK PASSED"
