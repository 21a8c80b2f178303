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
#      exactly the json tags of client.SessionSpec (client/client.go), the
#      type the server decodes the create body into;
#   5. the json tags of client.Program, the /status `topology.program`
#      object, are exactly the keys of that object in the status example in
#      docs/API.md;
#   6. every cmd/…, scripts/…, internal/… or examples/… path named in
#      README.md, DESIGN.md or docs/API.md exists in the tree (no
#      documentation of deleted binaries, scripts or packages);
#   7. every Test…, Fuzz…, Benchmark… or Example… name cited in those three
#      documents is a function in some _test.go file (a subtest path such as
#      TestX/case checks TestX), so a deleted test cannot stay cited.
#   8. every alternative of a `go test -run` or `-fuzz` pattern in
#      .github/workflows/ci.yml and scripts/*.sh matches a function in a
#      _test.go file of a package that command targets, so a deleted or
#      renamed test cannot leave a run pattern that silently matches nothing
#      (the match-nothing pattern '^$' is exempt).
#   9. the json tags of client.Session are exactly the top-level keys of the
#      session-object examples (```json blocks) under `### POST /v1/sessions`;
#  10. the json tags of client.ClusterStatus are exactly the top-level keys
#      of the example under `### GET /v1/cluster/status`.
#
# Every extraction that finds nothing is reported with the pattern and the
# file it searched, instead of ending the script silently under pipefail.
# Exits non-zero with one line per mismatch; CI runs this next to
# bench_guard.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

HTTP_GO=internal/server/http.go
GW_GO=internal/cluster/gateway.go
CLIENT_GO=client/client.go
API_MD=docs/API.md

fail=0

# found WHAT PATTERN FILE VALUE: an extraction that came back empty is a
# failure that names what it looked for and where.
found() {
  if [ -z "$4" ]; then
    echo "docs_check: no $1 found: pattern '$2' in $3" >&2
    fail=1
  fi
}

# struct_tags TYPE FILE: the json tags between `type TYPE struct {` and its
# closing brace, sorted.
struct_tags() {
  { sed -n "/^type $1 struct {/,/^}/p" "$2" | grep -oE 'json:"[^",]+' | sed 's/^json:"//' | sort -u; } || true
}

code_routes=$({ grep -ohE 'HandleFunc\("(GET|POST|PUT|PATCH|DELETE) [^"]+"' "$HTTP_GO" "$GW_GO" \
  | sed -E 's/^HandleFunc\("//; s/"$//' | sort -u; } || true)
found "method-qualified routes" 'HandleFunc("METHOD /…"' "$HTTP_GO $GW_GO" "$code_routes"
doc_routes=$({ grep -oE '^### (GET|POST|PUT|PATCH|DELETE) /[^[:space:]]+' "$API_MD" \
  | sed -E 's/^### //' | sort -u; } || true)
found "route headings" '### METHOD /…' "$API_MD" "$doc_routes"

while IFS= read -r route; do
  [ -z "$route" ] && continue
  if ! grep -qxF "$route" <<<"$doc_routes"; then
    echo "docs_check: '$route' is registered in $HTTP_GO/$GW_GO but undocumented in $API_MD" >&2
    fail=1
  fi
done <<<"$code_routes"

while IFS= read -r route; do
  [ -z "$route" ] && continue
  if ! grep -qxF "$route" <<<"$code_routes"; then
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

# The POST /v1/sessions section of API.md, which checks 4 and 9 read.
sessions_md=$(sed -n '/^### POST \/v1\/sessions$/,/^### /p' "$API_MD")
found "POST /v1/sessions section" '### POST /v1/sessions' "$API_MD" "$sessions_md"

# same_set WHAT CODE_SET CODE_FILE DOC_SET: report each name in one set but
# not the other.
same_set() {
  while IFS= read -r name; do
    [ -z "$name" ] && continue
    echo "docs_check: $1 '$name' is in $3 but missing from $API_MD" >&2
    fail=1
  done <<<"$(comm -23 <(printf '%s\n' "$2") <(printf '%s\n' "$4"))"
  while IFS= read -r name; do
    [ -z "$name" ] && continue
    echo "docs_check: $1 '$name' is in $API_MD but not in $3" >&2
    fail=1
  done <<<"$(comm -13 <(printf '%s\n' "$2") <(printf '%s\n' "$4"))"
}

# Session-spec fields: the json tags of client.SessionSpec against the
# first-column names of the table in the POST /v1/sessions section.
code_fields=$(struct_tags SessionSpec "$CLIENT_GO")
found "session-spec json tags" 'type SessionSpec struct {…}' "$CLIENT_GO" "$code_fields"
doc_fields=$({ grep -oE '^\| `[A-Za-z]+`' <<<"$sessions_md" | sed -E 's/^\| `//; s/`$//' | sort -u; } || true)
found "session-spec table rows" '| `field` |' "$API_MD (### POST /v1/sessions)" "$doc_fields"
same_set "session-spec field" "$code_fields" "$CLIENT_GO" "$doc_fields"

# top_keys: the top-level keys of the ```json examples on stdin (a nested
# object such as limits contributes its own key, not its members').
top_keys() {
  { awk '
  /^```json/ { injson = 1; depth = 0; next }
  /^```/ { injson = 0; next }
  injson {
    line = $0
    while (match(line, /[{}]|"[A-Za-z]+":/)) {
      tok = substr(line, RSTART, RLENGTH)
      if (tok == "{") depth++
      else if (tok == "}") depth--
      else if (depth == 1) { gsub(/[":]/, "", tok); print tok }
      line = substr(line, RSTART + RLENGTH)
    }
  }' | sort -u; } || true
}

# Session object: the json tags of client.Session against the top-level
# keys of the ```json examples in the same section.
code_session=$(struct_tags Session "$CLIENT_GO")
found "session-object json tags" 'type Session struct {…}' "$CLIENT_GO" "$code_session"
doc_session=$(top_keys <<<"$sessions_md")
found "session-object example keys" '```json blocks' "$API_MD (### POST /v1/sessions)" "$doc_session"
same_set "session-object field" "$code_session" "$CLIENT_GO" "$doc_session"

# /status topology.program: the json tags of client.Program against the
# keys of the example object in API.md.
code_program=$(struct_tags Program "$CLIENT_GO")
found "/status topology.program json tags" 'type Program struct {…}' "$CLIENT_GO" "$code_program"
doc_program=$({ grep -oE '"program": \{[^}]*\}' "$API_MD" | head -1 \
  | sed -E 's/^"program": //' | grep -oE '"[a-z]+":' | tr -d '":' | sort -u; } || true)
found "/status topology.program example keys" '"program": {…}' "$API_MD" "$doc_program"
if [ "$code_program" != "$doc_program" ]; then
  echo "docs_check: /status topology.program is {$(echo $code_program)} in $CLIENT_GO but {$(echo $doc_program)} in $API_MD" >&2
  fail=1
fi

# Cluster status: the json tags of client.ClusterStatus against the
# top-level keys of the example under its heading.
code_cluster=$(struct_tags ClusterStatus "$CLIENT_GO")
found "cluster-status json tags" 'type ClusterStatus struct {…}' "$CLIENT_GO" "$code_cluster"
doc_cluster=$(sed -n '/^### GET \/v1\/cluster\/status$/,/^##/p' "$API_MD" | top_keys)
found "cluster-status example keys" '```json blocks' "$API_MD (### GET /v1/cluster/status)" "$doc_cluster"
same_set "cluster-status field" "$code_cluster" "$CLIENT_GO" "$doc_cluster"

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
defined=$({ grep -rhoE --include='*_test.go' '^func (Test|Fuzz|Benchmark|Example)[A-Za-z0-9_]*' . \
  | sed 's/^func //' | sort -u; } || true)
found "test functions" '^func Test…' "*_test.go" "$defined"
for doc in README.md DESIGN.md "$API_MD"; do
  while IFS= read -r name; do
    [ -z "$name" ] && continue
    if ! grep -qxF "$name" <<<"$defined"; then
      echo "docs_check: $doc cites $name, which no _test.go file defines" >&2
      fail=1
    fi
  done <<<"$(grep -oE '\b(Test|Fuzz|Benchmark|Example)[A-Z][A-Za-z0-9_]*' "$doc" | sort -u)"
done

# Run patterns in CI and the scripts: each alternative is matched, as go
# test matches it, against the test functions of the packages the command
# names (a trailing /... takes in the subdirectories).
test_funcs() {
  local dir=${1%/...} depth=()
  dir=${dir%/}
  [ "$1" = "$dir" ] || [ "$1" = "$dir/" ] && depth=(-maxdepth 1)
  find "$dir" "${depth[@]}" -name '*_test.go' -exec grep -hoE '^func (Test|Fuzz|Benchmark|Example)[A-Za-z0-9_]*' {} + \
    | sed 's/^func //'
}
while IFS= read -r line; do
  [ -z "$line" ] && continue
  pkgs=$(grep -oE '(^|[[:space:]])\.(/[^[:space:]]*)?' <<<"${line#*go test}" | tr -d ' \t')
  pkgs=${pkgs:-.}
  funcs=$(for pkg in $pkgs; do test_funcs "$pkg"; done)
  while IFS= read -r pattern; do
    pattern=$(sed -E "s/^-(run|fuzz) //; s/^['\"]//; s/['\"]\$//" <<<"$pattern")
    IFS='|' read -ra alts <<<"$pattern"
    for alt in "${alts[@]}"; do
      alt=${alt#^}
      alt=${alt%\$}
      alt=${alt%%/*}
      [ -z "$alt" ] && continue
      if ! grep -qE -- "$alt" <<<"$funcs"; then
        echo "docs_check: ${line%%:*} runs '$alt' on $(echo $pkgs), which defines no test it matches" >&2
        fail=1
      fi
    done
  done <<<"$(grep -oE -- "-(run|fuzz) ('[^']*'|\"[^\"]*\"|[^[:space:]]+)" <<<"${line#*go test}")"
done <<<"$(grep -HE 'go test .*-(run|fuzz) ' .github/workflows/ci.yml scripts/*.sh)"

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "docs_check: $API_MD, $HTTP_GO, $GW_GO and $CLIENT_GO agree ($(printf '%s\n' "$code_routes" | grep -c .) v1 routes, $(printf '%s\n' "$code_fields" | grep -c .) session-spec fields, $(printf '%s\n' "$code_session" | grep -c .) session-object fields); every test the docs cite exists"
