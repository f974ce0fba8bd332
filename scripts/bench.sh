#!/bin/sh
# GC victim-selection benchmark: runs the incremental-vs-scratch selection
# benchmarks plus the GC-heavy many-snapshot workload, and writes the
# results (with the incremental/scratch speedup ratio) to BENCH_gc.json at
# the repository root. No dependencies beyond the go toolchain and awk.
set -eu

cd "$(dirname "$0")/.."

out=BENCH_gc.json
raw=$(mktemp)
trap 'rm -f "$raw"' EXIT

echo "== go test -bench (victim selection + GC-heavy workload)"
go test ./internal/iosnap/ -run '^$' \
	-bench 'BenchmarkVictimSelect$|BenchmarkVictimSelectScratch$|BenchmarkGCHeavySnapshotWorkload$' \
	-benchtime=1000x | tee "$raw"

awk '
/^BenchmarkVictimSelect(-[0-9]+)?[ \t]/                            { sel = $3 }
/^BenchmarkVictimSelectScratch/                                    { scr = $3 }
/^BenchmarkGCHeavySnapshotWorkload/                                { wl  = $3 }
END {
	if (sel == "" || scr == "" || wl == "") {
		print "bench.sh: missing benchmark output" > "/dev/stderr"
		exit 1
	}
	speedup = scr / sel
	printf "{\n"
	printf "  \"benchmark\": \"gc-victim-selection\",\n"
	printf "  \"config\": \"64 segments x 64 pages, 64 live snapshots\",\n"
	printf "  \"victim_select_incremental_ns_op\": %.2f,\n", sel
	printf "  \"victim_select_scratch_ns_op\": %.2f,\n", scr
	printf "  \"gc_heavy_workload_ns_op\": %.2f,\n", wl
	printf "  \"speedup\": %.1f\n", speedup
	printf "}\n"
}' "$raw" > "$out"

echo "== wrote $out"
cat "$out"

speedup=$(awk -F'[:,]' '/"speedup"/ { print $2 }' "$out")
awk "BEGIN { exit !($speedup >= 5) }" || {
	echo "bench.sh: speedup $speedup below the 5x acceptance floor" >&2
	exit 1
}

# Recovery benchmark: tail-bounded (checkpoint) mount vs the vanilla full
# header scan on the same image. The reported metrics are deterministic
# virtual quantities (header pages scanned, virtual mount time), so one
# iteration suffices.
rout=BENCH_recovery.json

echo "== go test -bench (tail-bounded vs full-scan recovery)"
go test ./internal/iosnap/ -run '^$' \
	-bench 'BenchmarkRecoverTailBounded$|BenchmarkRecoverFullScan$' \
	-benchtime=1x | tee "$raw"

awk '
function metric(unit,   i) {
	for (i = 1; i <= NF; i++) {
		if ($i == unit) {
			return $(i - 1)
		}
	}
	return ""
}
/^BenchmarkRecoverTailBounded/ { tp = metric("hdrpages/op"); tt = metric("vus/op") }
/^BenchmarkRecoverFullScan/    { fp = metric("hdrpages/op"); ft = metric("vus/op") }
END {
	if (tp == "" || fp == "" || tt == "" || ft == "") {
		print "bench.sh: missing recovery benchmark output" > "/dev/stderr"
		exit 1
	}
	printf "{\n"
	printf "  \"benchmark\": \"tail-bounded-recovery\",\n"
	printf "  \"config\": \"128 segments x 32 pages, 2500 writes, 2 snapshots, clean close\",\n"
	printf "  \"tail_header_pages\": %.0f,\n", tp
	printf "  \"full_scan_header_pages\": %.0f,\n", fp
	printf "  \"tail_virtual_us\": %.1f,\n", tt
	printf "  \"full_scan_virtual_us\": %.1f,\n", ft
	printf "  \"header_page_speedup\": %.1f,\n", fp / tp
	printf "  \"virtual_time_speedup\": %.1f\n", ft / tt
	printf "}\n"
}' "$raw" > "$rout"

echo "== wrote $rout"
cat "$rout"

rspeedup=$(awk -F'[:,]' '/"header_page_speedup"/ { print $2 }' "$rout")
awk "BEGIN { exit !($rspeedup >= 10) }" || {
	echo "bench.sh: recovery header-page speedup $rspeedup below the 10x acceptance floor" >&2
	exit 1
}

# Batched data path benchmark: host ns/op of the batched scatter-gather
# path vs the per-sector reference implementation, 256-sector (1M) ops on
# both FTLs. Virtual bandwidth is identical by construction (the equivalence
# tests assert it); the JSON records it once per op kind as a sanity figure.
dout=BENCH_datapath.json

echo "== go test -bench (batched vs reference data path, 1M ops)"
go test . -run '^$' \
	-bench 'BenchmarkDataPath(Batched|Reference)(Write|Read)/(ftl|iosnap)/1M' \
	-benchtime=4000x | tee "$raw"

awk '
function metric(unit,   i) {
	for (i = 1; i <= NF; i++) {
		if ($i == unit) {
			return $(i - 1)
		}
	}
	return ""
}
$1 ~ /^BenchmarkDataPathBatchedWrite\/ftl\/1M/      { bwf = $3; wgb = metric("virtual-GB/s") }
$1 ~ /^BenchmarkDataPathBatchedWrite\/iosnap\/1M/   { bwi = $3 }
$1 ~ /^BenchmarkDataPathReferenceWrite\/ftl\/1M/    { rwf = $3 }
$1 ~ /^BenchmarkDataPathReferenceWrite\/iosnap\/1M/ { rwi = $3 }
$1 ~ /^BenchmarkDataPathBatchedRead\/ftl\/1M/       { brf = $3; rgb = metric("virtual-GB/s") }
$1 ~ /^BenchmarkDataPathBatchedRead\/iosnap\/1M/    { bri = $3 }
$1 ~ /^BenchmarkDataPathReferenceRead\/ftl\/1M/     { rrf = $3 }
$1 ~ /^BenchmarkDataPathReferenceRead\/iosnap\/1M/  { rri = $3 }
END {
	if (bwf == "" || bwi == "" || rwf == "" || rwi == "" ||
	    brf == "" || bri == "" || rrf == "" || rri == "") {
		print "bench.sh: missing data path benchmark output" > "/dev/stderr"
		exit 1
	}
	printf "{\n"
	printf "  \"benchmark\": \"batched-data-path\",\n"
	printf "  \"config\": \"4K sectors, 1024 pages/segment, 128 segments, 256-sector ops\",\n"
	printf "  \"seq_write_1m_batched_ns_op\": {\"ftl\": %.0f, \"iosnap\": %.0f},\n", bwf, bwi
	printf "  \"seq_write_1m_reference_ns_op\": {\"ftl\": %.0f, \"iosnap\": %.0f},\n", rwf, rwi
	printf "  \"rand_read_1m_batched_ns_op\": {\"ftl\": %.0f, \"iosnap\": %.0f},\n", brf, bri
	printf "  \"rand_read_1m_reference_ns_op\": {\"ftl\": %.0f, \"iosnap\": %.0f},\n", rrf, rri
	printf "  \"seq_write_virtual_gb_s\": %.3f,\n", wgb
	printf "  \"rand_read_virtual_gb_s\": %.3f,\n", rgb
	printf "  \"write_speedup\": {\"ftl\": %.2f, \"iosnap\": %.2f},\n", rwf / bwf, rwi / bwi
	printf "  \"read_speedup\": {\"ftl\": %.2f, \"iosnap\": %.2f}\n", rrf / brf, rri / bri
	printf "}\n"
}' "$raw" > "$dout"

echo "== wrote $dout"
cat "$dout"

wsf=$(awk -F'[:,{}]+' '/"write_speedup"/ { print $4 }' "$dout")
wsi=$(awk -F'[:,{}]+' '/"write_speedup"/ { print $6 }' "$dout")
rsf=$(awk -F'[:,{}]+' '/"read_speedup"/ { print $4 }' "$dout")
rsi=$(awk -F'[:,{}]+' '/"read_speedup"/ { print $6 }' "$dout")
awk "BEGIN { exit !($wsf >= 2 && $wsi >= 2) }" || {
	echo "bench.sh: seq-write speedup ftl=$wsf iosnap=$wsi below the 2x acceptance floor" >&2
	exit 1
}
awk "BEGIN { exit !($rsf >= 2 && $rsi >= 2) }" || {
	echo "bench.sh: rand-read speedup ftl=$rsf iosnap=$rsi below the 2x acceptance floor" >&2
	exit 1
}

# Sharded service-mode benchmark: the same seeded client workload at 1, 4,
# and 16 shards. The gated figure is virtual-time throughput (user bytes
# over the virtual makespan) — a function of the seed and geometry, with
# only queue-arrival interleaving adding percent-level jitter — so the 2x
# scaling floor (measured ~5.7x) holds even on a 1-core runner.
sout=BENCH_shard.json

echo "== go test -race (service-mode storm)"
go test -race ./internal/shard/ -run 'TestServiceStorm$'

echo "== go test -bench (sharded service mode, 1/4/16 shards)"
go test ./internal/shard/ -run '^$' \
	-bench 'BenchmarkShardService/shards(1|4|16)$' \
	-benchtime=1x | tee "$raw"

awk '
function metric(unit,   i) {
	for (i = 1; i <= NF; i++) {
		if ($i == unit) {
			return $(i - 1)
		}
	}
	return ""
}
$1 ~ /^BenchmarkShardService\/shards1(-[0-9]+)?$/  { v1 = metric("virtual-MB/s") }
$1 ~ /^BenchmarkShardService\/shards4(-[0-9]+)?$/  { v4 = metric("virtual-MB/s") }
$1 ~ /^BenchmarkShardService\/shards16(-[0-9]+)?$/ { v16 = metric("virtual-MB/s") }
END {
	if (v1 == "" || v4 == "" || v16 == "") {
		print "bench.sh: missing shard benchmark output" > "/dev/stderr"
		exit 1
	}
	printf "{\n"
	printf "  \"benchmark\": \"sharded-service-mode\",\n"
	printf "  \"config\": \"256 segments x 32 pages, 16 clients x 150 ops, 16-sector runs, seed 1\",\n"
	printf "  \"virtual_mb_s\": {\"shards1\": %.1f, \"shards4\": %.1f, \"shards16\": %.1f},\n", v1, v4, v16
	printf "  \"scaling_16_vs_1\": %.2f\n", v16 / v1
	printf "}\n"
}' "$raw" > "$sout"

echo "== wrote $sout"
cat "$sout"

scaling=$(awk -F'[:,]' '/"scaling_16_vs_1"/ { print $2 }' "$sout")
awk "BEGIN { exit !($scaling >= 2) }" || {
	echo "bench.sh: 16-shard scaling $scaling below the 2x acceptance floor" >&2
	exit 1
}

# Replication benchmark: incremental (delta against the previous committed
# generation) vs full-image transfer of the same snapshot — sectors and
# wire bytes shipped plus virtual transfer time. All metrics are
# deterministic virtual quantities, so one iteration suffices.
xout=BENCH_export.json

echo "== go test -bench (incremental vs full replication)"
go test ./internal/iosnap/ -run '^$' \
	-bench 'BenchmarkReplicateFull$|BenchmarkReplicateIncremental$' \
	-benchtime=1x | tee "$raw"

awk '
function metric(unit,   i) {
	for (i = 1; i <= NF; i++) {
		if ($i == unit) {
			return $(i - 1)
		}
	}
	return ""
}
/^BenchmarkReplicateFull/        { fs = metric("sectors/op"); fb = metric("wirebytes/op"); ft = metric("vus/op") }
/^BenchmarkReplicateIncremental/ { is = metric("sectors/op"); ib = metric("wirebytes/op"); it = metric("vus/op") }
END {
	if (fs == "" || fb == "" || ft == "" || is == "" || ib == "" || it == "") {
		print "bench.sh: missing replication benchmark output" > "/dev/stderr"
		exit 1
	}
	printf "{\n"
	printf "  \"benchmark\": \"incremental-replication\",\n"
	printf "  \"config\": \"128 segments x 32 pages, 600-sector image, 10%% overwrite + 10-sector trim between generations\",\n"
	printf "  \"full_sectors\": %.0f,\n", fs
	printf "  \"full_wire_bytes\": %.0f,\n", fb
	printf "  \"full_virtual_us\": %.1f,\n", ft
	printf "  \"incremental_sectors\": %.0f,\n", is
	printf "  \"incremental_wire_bytes\": %.0f,\n", ib
	printf "  \"incremental_virtual_us\": %.1f,\n", it
	printf "  \"wire_bytes_advantage\": %.1f,\n", fb / ib
	printf "  \"virtual_time_advantage\": %.1f\n", ft / it
	printf "}\n"
}' "$raw" > "$xout"

echo "== wrote $xout"
cat "$xout"

xadv=$(awk -F'[:,]' '/"wire_bytes_advantage"/ { print $2 }' "$xout")
tadv=$(awk -F'[:,]' '/"virtual_time_advantage"/ { print $2 }' "$xout")
awk "BEGIN { exit !($xadv >= 4) }" || {
	echo "bench.sh: incremental wire-bytes advantage $xadv below the 4x acceptance floor" >&2
	exit 1
}
awk "BEGIN { exit !($tadv >= 1.5) }" || {
	echo "bench.sh: incremental virtual-time advantage $tadv below the 1.5x acceptance floor" >&2
	exit 1
}

# Paged mapping table benchmark: hit rate vs foreground latency at three
# translation-page cache sizes on a TB-class device, against the in-RAM map
# baseline. The -race thrash torture runs first: a tiny cache under the
# snapshot-churn storm, the workload most likely to expose cache/GC races.
mout=BENCH_mapcache.json

echo "== go test -race (map-thrash torture)"
go test -race ./internal/iosnap/ -run 'TestTortureMapThrash'

echo "== go test -bench (paged map cache sweep, TB-class geometry)"
go test . -run '^$' \
	-bench 'BenchmarkMapCache/(inram|cache128|cache512|cache2048)$' \
	-benchtime=1x | tee "$raw"

awk '
function metric(unit,   i) {
	for (i = 1; i <= NF; i++) {
		if ($i == unit) {
			return $(i - 1)
		}
	}
	return ""
}
$1 ~ /^BenchmarkMapCache\/inram/     { il = metric("vus/op"); ir = metric("residentB") }
$1 ~ /^BenchmarkMapCache\/cache128/  { h1 = metric("hitrate"); l1 = metric("vus/op"); r1 = metric("residentB") }
$1 ~ /^BenchmarkMapCache\/cache512/  { h2 = metric("hitrate"); l2 = metric("vus/op"); r2 = metric("residentB") }
$1 ~ /^BenchmarkMapCache\/cache2048/ { h3 = metric("hitrate"); l3 = metric("vus/op"); r3 = metric("residentB") }
END {
	if (il == "" || h1 == "" || h2 == "" || h3 == "" || l1 == "" || l2 == "" || l3 == "") {
		print "bench.sh: missing map cache benchmark output" > "/dev/stderr"
		exit 1
	}
	printf "{\n"
	printf "  \"benchmark\": \"paged-map-cache\",\n"
	printf "  \"config\": \"1TB device (4K pages, 256Ki segments), 64K mapped sectors, 95/10 hot-cold reads\",\n"
	printf "  \"inram_vus_op\": %.2f,\n", il
	printf "  \"inram_resident_bytes\": %.0f,\n", ir
	printf "  \"cache128\":  {\"hit_rate\": %.4f, \"vus_op\": %.2f, \"resident_bytes\": %.0f, \"latency_ratio\": %.2f},\n", h1, l1, r1, l1 / il
	printf "  \"cache512\":  {\"hit_rate\": %.4f, \"vus_op\": %.2f, \"resident_bytes\": %.0f, \"latency_ratio\": %.2f},\n", h2, l2, r2, l2 / il
	printf "  \"cache2048\": {\"hit_rate\": %.4f, \"vus_op\": %.2f, \"resident_bytes\": %.0f, \"latency_ratio\": %.2f}\n", h3, l3, r3, l3 / il
	printf "}\n"
}' "$raw" > "$mout"

echo "== wrote $mout"
cat "$mout"

mhit=$(awk -F'[:,{}]+' '/"cache2048"/ { print $4 }' "$mout")
mratio=$(awk -F'[:,{}]+' '/"cache2048"/ { print $10 }' "$mout")
awk "BEGIN { exit !($mhit >= 0.9) }" || {
	echo "bench.sh: cache2048 hit rate $mhit below the 0.9 acceptance floor" >&2
	exit 1
}
awk "BEGIN { exit !($mratio <= 2) }" || {
	echo "bench.sh: cache2048 latency ratio $mratio above the 2x acceptance ceiling" >&2
	exit 1
}

# Wire protocol benchmark: wall-clock ops/s over real loopback TCP —
# serial v1 (one request per round-trip, the PR 9 protocol) vs the tagged
# v2 pipeline at depth 16, identical geometry and read mix, plus the
# snap-read hot loop whose hitrate proves the server-side view cache
# served it (no per-request activate/deactivate). The -race storm runs
# first: tagged clients with deep pipelines, snapshot churn, and a
# shutdown racing in-flight pipelines.
wout=BENCH_wire.json

echo "== go test -race (pipelined wire storm + shutdown mid-pipeline)"
go test -race ./internal/srv/ -run 'TestWirePipelinedStorm$|TestWireShutdownMidPipeline$'

echo "== go test -bench (serial v1 vs pipelined v2 wire, wall clock)"
go test ./internal/srv/ -run '^$' \
	-bench 'BenchmarkWireSerialV1$|BenchmarkWirePipelined16$|BenchmarkWireSnapRead16$' \
	-benchtime=20000x | tee "$raw"

awk '
function metric(unit,   i) {
	for (i = 1; i <= NF; i++) {
		if ($i == unit) {
			return $(i - 1)
		}
	}
	return ""
}
/^BenchmarkWireSerialV1/    { v1 = metric("ops/s") }
/^BenchmarkWirePipelined16/ { v2 = metric("ops/s") }
/^BenchmarkWireSnapRead16/  { sr = metric("ops/s"); hr = metric("hitrate") }
END {
	if (v1 == "" || v2 == "" || sr == "" || hr == "") {
		print "bench.sh: missing wire benchmark output" > "/dev/stderr"
		exit 1
	}
	printf "{\n"
	printf "  \"benchmark\": \"wire-protocol-pipelining\",\n"
	printf "  \"config\": \"loopback TCP, 2 conns, 1-sector reads, 512B sectors, 4 shards\",\n"
	printf "  \"serial_v1_ops_s\": %.0f,\n", v1
	printf "  \"pipelined16_ops_s\": %.0f,\n", v2
	printf "  \"snapread16_ops_s\": %.0f,\n", sr
	printf "  \"snapread_view_cache_hitrate\": %.4f,\n", hr
	printf "  \"pipelined_speedup\": %.2f\n", v2 / v1
	printf "}\n"
}' "$raw" > "$wout"

echo "== wrote $wout"
cat "$wout"

wspeed=$(awk -F'[:,]' '/"pipelined_speedup"/ { print $2 }' "$wout")
whit=$(awk -F'[:,]' '/"snapread_view_cache_hitrate"/ { print $2 }' "$wout")
awk "BEGIN { exit !($wspeed >= 3) }" || {
	echo "bench.sh: pipelined wire speedup $wspeed below the 3x acceptance floor" >&2
	exit 1
}
awk "BEGIN { exit !($whit >= 0.9) }" || {
	echo "bench.sh: snap-read view-cache hit rate $whit below the 0.9 acceptance floor" >&2
	exit 1
}
