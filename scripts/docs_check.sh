#!/usr/bin/env bash
# docs_check.sh — keep docs/API.md in lockstep with the HTTP surface:
# internal/server/http.go (craqrd) and internal/cluster/gateway.go
# (craqr-gw).
#
# Checks:
#   1. every method-qualified /v1 route registered with HandleFunc must have
#      a matching `### METHOD /path` heading in docs/API.md;
#   2. every `### METHOD /path` heading in docs/API.md must still be
#      registered in one of the source files (no documentation of removed
#      routes);
#   3. every pattern registered in http.go carries a method, and every
#      pattern in either file lives under /v1 (the gateway's two
#      method-less /v1/sessions/{session} proxy patterns are the only
#      method-less ones) — the single-session façade cannot come back
#      unnoticed;
#   4. the session-spec field table under `### POST /v1/sessions` lists
#      exactly the json tags of sessionSpecJSON in http.go;
#   5. the keys of /status `topology.program` rendered by http.go are
#      exactly those of the status example in docs/API.md;
#   6. every cmd/…, scripts/…, internal/… or examples/… path named in
#      README.md, DESIGN.md or docs/API.md exists in the tree (no
#      documentation of deleted binaries, scripts or packages);
#   7. every Test…, Fuzz…, Benchmark… or Example… name cited in those three
#      documents is a function in some _test.go file (a subtest path such as
#      TestX/case checks TestX), so a deleted test cannot stay cited.
#
# Exits non-zero with one line per mismatch; CI runs this next to
# bench_guard.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

HTTP_GO=internal/server/http.go
GW_GO=internal/cluster/gateway.go
API_MD=docs/API.md

code_routes=$(grep -ohE 'HandleFunc\("(GET|POST|PUT|PATCH|DELETE) [^"]+"' "$HTTP_GO" "$GW_GO" \
  | sed -E 's/^HandleFunc\("//; s/"$//' | sort -u)
doc_routes=$(grep -oE '^### (GET|POST|PUT|PATCH|DELETE) /[^[:space:]]+' "$API_MD" \
  | sed -E 's/^### //' | sort -u)

fail=0

while IFS= read -r route; do
  [ -z "$route" ] && continue
  if ! printf '%s\n' "$doc_routes" | grep -qxF "$route"; then
    echo "docs_check: '$route' is registered in $HTTP_GO/$GW_GO but undocumented in $API_MD" >&2
    fail=1
  fi
done <<<"$code_routes"

while IFS= read -r route; do
  [ -z "$route" ] && continue
  if ! printf '%s\n' "$code_routes" | grep -qxF "$route"; then
    echo "docs_check: '$route' is documented in $API_MD but not registered in $HTTP_GO or $GW_GO" >&2
    fail=1
  fi
done <<<"$doc_routes"

all_patterns() { grep -oE 'HandleFunc\("[^"]+"' "$1" | sed -E 's/^HandleFunc\("//; s/"$//'; }
while IFS= read -r pattern; do
  [ -z "$pattern" ] && continue
  echo "docs_check: $HTTP_GO registers '$pattern' without a method" >&2
  fail=1
done <<<"$(all_patterns "$HTTP_GO" | grep -v ' ' || true)"
while IFS= read -r pattern; do
  [ -z "$pattern" ] && continue
  echo "docs_check: '$pattern' is registered outside /v1" >&2
  fail=1
done <<<"$({ all_patterns "$HTTP_GO"; all_patterns "$GW_GO"; } | grep -vE '^([A-Z]+ )?/v1/' || true)"

# Session-spec fields: the json tags between `type sessionSpecJSON struct`
# and its closing brace, against the first-column names of the table in the
# POST /v1/sessions section.
code_fields=$(sed -n '/^type sessionSpecJSON struct {/,/^}/p' "$HTTP_GO" \
  | grep -oE 'json:"[^",]+' | sed 's/^json:"//' | sort -u)
doc_fields=$(sed -n '/^### POST \/v1\/sessions$/,/^### /p' "$API_MD" \
  | grep -oE '^\| `[A-Za-z]+`' | sed -E 's/^\| `//; s/`$//' | sort -u)
while IFS= read -r field; do
  [ -z "$field" ] && continue
  echo "docs_check: session-spec field '$field' is accepted by $HTTP_GO but missing from the $API_MD table" >&2
  fail=1
done <<<"$(comm -23 <(printf '%s\n' "$code_fields") <(printf '%s\n' "$doc_fields"))"
while IFS= read -r field; do
  [ -z "$field" ] && continue
  echo "docs_check: session-spec field '$field' is in the $API_MD table but not accepted by $HTTP_GO" >&2
  fail=1
done <<<"$(comm -13 <(printf '%s\n' "$code_fields") <(printf '%s\n' "$doc_fields"))"

# /status topology.program: the keys of the map literal in http.go against
# the keys of the example object in API.md.
code_program=$(sed -n '/"program": map\[string\]interface{}{/,/}/p' "$HTTP_GO" \
  | grep -oE '^[[:space:]]+"[a-z]+":' | tr -d ' \t":' | grep -vx program | sort -u)
doc_program=$(grep -oE '"program": \{[^}]*\}' "$API_MD" | head -1 \
  | sed -E 's/^"program": //' | grep -oE '"[a-z]+":' | tr -d '":' | sort -u)
if [ -z "$code_program" ] || [ "$code_program" != "$doc_program" ]; then
  echo "docs_check: /status topology.program is {$(echo $code_program)} in $HTTP_GO but {$(echo $doc_program)} in $API_MD" >&2
  fail=1
fi

# Repository paths named in the docs: trailing sentence punctuation is
# stripped, and a glob such as scripts/*.sh stops the match before its `*`.
for doc in README.md DESIGN.md "$API_MD"; do
  while IFS= read -r path; do
    [ -z "$path" ] && continue
    if [ ! -e "$path" ]; then
      echo "docs_check: $doc names '$path', which does not exist" >&2
      fail=1
    fi
  done <<<"$(grep -oE '\b(cmd|scripts|internal|examples)/[A-Za-z0-9_./-]+' "$doc" | sed -E 's/[.,;:)]+$//' | sort -u)"
done

# Test names cited in the docs.
defined=$(grep -rhoE --include='*_test.go' '^func (Test|Fuzz|Benchmark|Example)[A-Za-z0-9_]*' . \
  | sed 's/^func //' | sort -u)
for doc in README.md DESIGN.md "$API_MD"; do
  while IFS= read -r name; do
    [ -z "$name" ] && continue
    if ! grep -qxF "$name" <<<"$defined"; then
      echo "docs_check: $doc cites $name, which no _test.go file defines" >&2
      fail=1
    fi
  done <<<"$(grep -oE '\b(Test|Fuzz|Benchmark|Example)[A-Z][A-Za-z0-9_]*' "$doc" | sort -u)"
done

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "docs_check: $API_MD, $HTTP_GO and $GW_GO agree ($(printf '%s\n' "$code_routes" | grep -c .) v1 routes, $(printf '%s\n' "$code_fields" | grep -c .) session-spec fields); every test the docs cite exists"
