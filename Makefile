# Tier-1 check: everything must build and every test must pass.
check:
	go build ./... && go test ./...

# Tier-2 check: the full suite under the race detector. The worker pool in
# internal/compute is the only source of concurrency in the repo; this is
# the gate that keeps it honest. Slow (the experiment drivers retrain
# models under a ~10x race-mode slowdown, far past the default 10m
# per-package timeout), so it is not part of `check`.
race:
	go test -race -timeout 60m ./...

# Fast race gate over the concurrent packages only. internal/modelio is
# here for the codebook-native eval test, which forwards a natively
# imported release through the worker pool at one thread and four;
# internal/quantize for fine-tuning, which runs the trainer on the model's
# execution context; internal/gateway for the fleet-routing tests
# (concurrent probes, rolling reloads, and hot-swap under fire);
# internal/dist for the multi-process trainer's in-process multi-rank tests.
race-fast:
	go test -race ./internal/compute/ ./internal/nn/ ./internal/train/ ./internal/dist/ ./internal/serve/ ./internal/obs/ ./internal/modelio/ ./internal/quantize/ ./internal/gateway/ ./internal/api/ ./internal/extract/

vet:
	go vet ./...

# The accumulation-order rule (internal/tensor/matmul.go) forbids fused
# multiply-adds in the kernels. amd64 builds never fuse; arm64 builds fuse
# x*y+z unless the product is converted with float64(). This cross-builds
# everything for arm64 and fails if internal/tensor's compiled code holds
# any fused multiply-add instruction.
no-fma:
	GOARCH=arm64 go vet ./...
	GOARCH=arm64 go build ./...
	@GOARCH=arm64 go build -gcflags='repro/internal/tensor=-S' ./internal/tensor/ 2>&1 \
		| grep -wE 'FMADDD|FMSUBD|FNMADDD|FNMSUBD'; test $$? -eq 1 || { echo 'fused multiply-add in internal/tensor'; exit 1; }

# Short fuzzing of the parsers that read bytes from another process or
# party: the dist partial and control codecs and the session frame reader
# (what a socket peer sends), the release-file reader (what a data holder
# publishes), the X-Dac-Trace and X-Dac-Server-Timing headers (what a
# client and a replica send), the /v1/predict body (what a client sends),
# and the artifact-store codecs for quantization records, training
# checkpoints and attack plans and reports (what the store hands back).
# FuzzKernels checks the matmul kernels' AVX2 and Go paths against the
# naive reference over operands from every float class.
# go test -fuzz takes one target per invocation, so each target gets its
# own line and 10 s; plain go test runs only the seed corpora.
fuzz-short:
	go test ./internal/dist/ -run '^$$' -fuzz '^FuzzDecodePartial$$' -fuzztime 10s
	go test ./internal/dist/ -run '^$$' -fuzz '^FuzzDecodeCtl$$' -fuzztime 10s
	go test ./internal/dist/ -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 10s
	go test ./internal/modelio/ -run '^$$' -fuzz '^FuzzRead$$' -fuzztime 10s
	go test ./internal/obs/ -run '^$$' -fuzz '^FuzzParseTraceHeader$$' -fuzztime 10s
	go test ./internal/obs/ -run '^$$' -fuzz '^FuzzParseTimings$$' -fuzztime 10s
	go test ./internal/serve/ -run '^$$' -fuzz '^FuzzPredict$$' -fuzztime 10s
	go test ./internal/quantize/ -run '^$$' -fuzz '^FuzzDecodeApplied$$' -fuzztime 10s
	go test ./internal/train/ -run '^$$' -fuzz '^FuzzDecodeCheckpoint$$' -fuzztime 10s
	go test ./internal/attack/ -run '^$$' -fuzz '^FuzzReadPlan$$' -fuzztime 10s
	go test ./internal/attack/ -run '^$$' -fuzz '^FuzzReadReport$$' -fuzztime 10s
	go test ./internal/tensor/ -run '^$$' -fuzz '^FuzzKernels$$' -fuzztime 10s

# The end-to-end benchmark in bench/ is its own Go module, so ./... skips
# it; this vets and tests it against the current sources (~7 s), so an API
# change the benchmark depends on fails here rather than in a benchmark run.
bench-test:
	cd bench && go vet . && go test .

# Serial-vs-parallel micro-benchmarks: the -cpu sweep varies GOMAXPROCS, so
# the parallel variants (ConvForward, ConvBackward, TrainEpoch) scale with it
# while the *Serial twins pin one worker as the baseline.
bench:
	go test -run '^$$' -bench 'Conv|TrainEpoch|MatMul' -cpu 1,2,4

# Matmul kernel throughput at the release architecture's per-sample
# convolution products (forward, dcol, dW), naive reference vs the
# production kernels on the Go and AVX2 accum paths, written to
# BENCH_kernels.json. The kernels are bit-identical by construction (the
# tests enforce it); this records what the accum paths buy.
kernels-bench:
	go test ./internal/tensor/ -run '^TestEmitKernelsBench$$' -count=1 -v -args -emit-bench=$(CURDIR)/BENCH_kernels.json

# Codebook-native vs dequantized serving of the same quantized release
# written to BENCH_serve_quant.json; fails unless native holds strictly
# fewer resident model bytes at no throughput cost (max_batch=8).
serve-quant-bench:
	go test ./internal/serve/ -run '^TestEmitServeQuantBench$$' -count=1 -v -timeout 20m -args -emit-quant-bench=$(CURDIR)/BENCH_serve_quant.json

# Fleet throughput sweep (aggregate requests/sec vs replica pool size, plus
# a rolling reload under fire) written to BENCH_gateway.json; fails unless
# req/s grows monotonically 1→2→4 replicas and the reload answers every
# client request.
gateway-bench:
	go test ./internal/gateway/ -run '^TestEmitGatewayBench$$' -count=1 -v -timeout 20m -args -emit-bench=$(CURDIR)/BENCH_gateway.json

# Model-extraction attack vs serving defenses written to
# BENCH_extract.json: the same budget-2000 prior-strategy attack run
# undefended and under each per-model policy (rounding, top-1, label-only,
# query budget). Fails unless the undefended surrogate reaches >= 80% top-1
# agreement with the victim and at least one defense cuts agreement by
# >= 10 points at equal budget.
extract-bench:
	go test ./internal/extract/ -run '^TestEmitExtractBench$$' -count=1 -v -timeout 30m -args -emit-bench=$(CURDIR)/BENCH_extract.json

# Data-parallel training benchmark: the same fixed-shard training job at
# procs ∈ {1,2,4} (in-process ranks, each with its own loopback session)
# written to BENCH_dp.json with wall time and exchange time per step; fails
# unless the final checkpoint is byte-identical across every process count.
dp-bench:
	go test ./internal/dist/ -run '^TestEmitDPBench$$' -count=1 -v -timeout 20m -args -emit-bench=$(CURDIR)/BENCH_dp.json

# Observability overhead guard: instrumented-vs-uninstrumented forward pass
# written to BENCH_obs.json; fails if enabling obs costs more than 2%.
obs-bench:
	go test ./internal/obs/ -run '^TestEmitObsBench$$' -count=1 -v -args -emit-bench=$(CURDIR)/BENCH_obs.json

# Pipeline cache benchmark: the quantizer ablation run cold (empty artifact
# store) vs warm (same store, fresh process state) written to
# BENCH_pipeline.json; fails if the warm run trains any epoch or misses any
# stage.
pipeline-bench:
	go test ./internal/experiments/ -run '^TestEmitPipelineBench$$' -count=1 -v -args -emit-bench=$(CURDIR)/BENCH_pipeline.json

.PHONY: check race race-fast vet no-fma fuzz-short bench-test bench kernels-bench serve-quant-bench gateway-bench obs-bench pipeline-bench extract-bench dp-bench
