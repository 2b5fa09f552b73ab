#!/usr/bin/env bash
# squashd_smoke.sh — end-to-end proof that the serve-mode daemon is
# byte-compatible with the one-shot tool. For each mediabench program it
# runs the standard pipeline (emit → assemble → profile), squashes once with
# cmd/squash and once through a live squashd socket, and requires identical
# SHA-256 of the two images. The same request is then repeated to confirm
# the daemon's warm result cache serves hits (visible in -stats) that are
# still byte-identical. A stats-only request must omit the image, and a
# second daemon with pooling off must return the same one-shot-identical
# bytes. Finally the daemons are shut down with SIGTERM and must exit
# cleanly.
#
# Usage: scripts/squashd_smoke.sh [bench ...]   (default: adpcm)
set -euo pipefail
cd "$(dirname "$0")/.."

benches=("$@")
[ ${#benches[@]} -gt 0 ] || benches=(adpcm)

work=$(mktemp -d)
daemon_pid=""
nopool_pid=""
cleanup() {
  [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null
  [ -n "$nopool_pid" ] && kill "$nopool_pid" 2>/dev/null
  rm -rf "$work"
}
trap cleanup EXIT

echo "building tools..."
go build -o "$work" ./cmd/mediabench ./cmd/em-as ./cmd/em-run ./cmd/squash ./cmd/squashd

sock="unix:$work/squashd.sock"
"$work/squashd" -listen "$sock" -serve-workers 4 2> "$work/squashd.log" &
daemon_pid=$!
for _ in $(seq 50); do
  "$work/squashd" -connect "$sock" -ping > /dev/null 2>&1 && break
  sleep 0.1
done
"$work/squashd" -connect "$sock" -ping

for b in "${benches[@]}"; do
  echo "== $b =="
  "$work/mediabench" -only "$b" -dir "$work"
  "$work/em-as" -o "$work/$b.o" "$work/$b.s"
  "$work/em-as" -link -o "$work/$b.exe" "$work/$b.s"
  "$work/em-run" -in "$work/$b.prof.in" -profile "$work/$b.prof" \
    "$work/$b.exe" > /dev/null

  "$work/squash" -profile "$work/$b.prof" -o "$work/$b.oneshot.exe" "$work/$b.o" > /dev/null
  "$work/squashd" -connect "$sock" -profile "$work/$b.prof" \
    -o "$work/$b.daemon.exe" "$work/$b.o"
  h1=$(sha256sum "$work/$b.oneshot.exe" | cut -d' ' -f1)
  h2=$(sha256sum "$work/$b.daemon.exe" | cut -d' ' -f1)
  if [ "$h1" != "$h2" ]; then
    echo "FAIL: $b daemon image differs from one-shot squash ($h1 vs $h2)" >&2
    exit 1
  fi
  echo "$b images identical: sha256 $h1"

  # Repeat: must come from the warm cache and still match. Capture then
  # grep — piping straight into `grep -q` races its early exit against the
  # client's second output line, and under pipefail the client's SIGPIPE
  # fails the pipeline even though the match succeeded.
  repeat_out=$("$work/squashd" -connect "$sock" -profile "$work/$b.prof" \
    -o "$work/$b.daemon2.exe" "$work/$b.o")
  grep -q "warm cache" <<< "$repeat_out" || {
      echo "FAIL: $b repeat request did not hit the warm cache" >&2; exit 1; }
  cmp "$work/$b.daemon.exe" "$work/$b.daemon2.exe" || {
    echo "FAIL: $b cached image differs from first response" >&2; exit 1; }

  # The daemon's image must actually run and match the one-shot image's
  # behaviour on the timing input.
  "$work/em-run" -in "$work/$b.time.in" "$work/$b.daemon.exe" > "$work/$b.daemon.out"
  "$work/em-run" -in "$work/$b.time.in" "$work/$b.oneshot.exe" > "$work/$b.oneshot.out"
  cmp "$work/$b.daemon.out" "$work/$b.oneshot.out" || {
    echo "FAIL: $b squashed outputs differ between daemon and one-shot" >&2; exit 1; }
done

b="${benches[0]}"
want=$(sha256sum "$work/$b.oneshot.exe" | cut -d' ' -f1)

# A stats-only request must omit image bytes but report real stats.
noimg_out=$("$work/squashd" -connect "$sock" -noimage -profile "$work/$b.prof" \
  -o "$work/$b.noimg.exe" "$work/$b.o")
grep -q "image omitted" <<< "$noimg_out" || {
  echo "FAIL: -noimage response still carried an image" >&2; exit 1; }
[ ! -e "$work/$b.noimg.exe" ] || {
  echo "FAIL: -noimage wrote an image file" >&2; exit 1; }

# A daemon with pooling off must produce one-shot-identical bytes too.
nopool_sock="unix:$work/squashd_nopool.sock"
"$work/squashd" -listen "$nopool_sock" -serve-workers 2 -nopool \
  2> "$work/squashd_nopool.log" &
nopool_pid=$!
for _ in $(seq 50); do
  "$work/squashd" -connect "$nopool_sock" -ping > /dev/null 2>&1 && break
  sleep 0.1
done
"$work/squashd" -connect "$nopool_sock" -profile "$work/$b.prof" \
  -o "$work/$b.nopool.exe" "$work/$b.o" > /dev/null
h=$(sha256sum "$work/$b.nopool.exe" | cut -d' ' -f1)
[ "$h" = "$want" ] || {
  echo "FAIL: -nopool daemon image differs ($h vs $want)" >&2; exit 1; }
echo "-nopool daemon matches one-shot: sha256 $want"

kill -TERM "$nopool_pid"
wait "$nopool_pid" || { echo "FAIL: -nopool daemon exited non-zero on SIGTERM" >&2; exit 1; }
nopool_pid=""

echo "-- stats --"
"$work/squashd" -connect "$sock" -stats | tee "$work/stats.json"
grep -q '"squash_cache_hits": [1-9]' "$work/stats.json" || {
  echo "FAIL: stats report no warm-cache hits" >&2; exit 1; }

kill -TERM "$daemon_pid"
wait "$daemon_pid" || { echo "FAIL: daemon exited non-zero on SIGTERM" >&2; exit 1; }
daemon_pid=""

echo "squashd smoke passed: ${benches[*]}"
