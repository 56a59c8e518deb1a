package engine

import (
	"fmt"
	"testing"

	"repro/internal/floorplan"
	"repro/internal/rfid"
	"repro/internal/sim"
)

// BenchmarkEngineStep1kObjects measures one full engine second at population
// scale: simulate a second of movement for 1000 tracked objects, ingest the
// raw readings, and preprocess every known object (cached particle states
// advance one second through the batched worker pool; the anchor snap and
// telemetry run inline). ns/op here is the wall-clock cost of keeping 1000
// objects current at 1 Hz — divide by 1000 for the per-object budget, and
// multiply by 100 to estimate the 100k-object step time the roadmap targets.
func BenchmarkEngineStep1kObjects(b *testing.B) {
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	cfg := DefaultConfig()
	cfg.Seed = 7
	sys := MustNew(plan, dep, cfg)
	tc := sim.DefaultTraceConfig()
	tc.NumObjects = 1000
	tc.DwellMin, tc.DwellMax = 2, 8
	world := sim.MustNew(sys.Graph(), rfid.NewSensor(dep), tc, 7)

	// Warm up: let every object appear at least once and build its cached
	// state, so the timed loop measures the steady state (cache hits, pooled
	// SoA advances) rather than cold-start filter runs.
	for i := 0; i < 30; i++ {
		tm, raws := world.Step()
		sys.Ingest(tm, raws)
	}
	objs := sys.Collector().KnownObjects()
	if len(objs) < 900 {
		b.Fatalf("warmup too cold: only %d/1000 objects known", len(objs))
	}
	sys.Preprocess(objs)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm, raws := world.Step()
		sys.Ingest(tm, raws)
		sys.Preprocess(objs)
	}
	b.StopTimer()
	secs := b.Elapsed().Seconds()
	if secs > 0 {
		b.ReportMetric(float64(len(objs))*float64(b.N)/secs, "objs/s")
	}
}

// BenchmarkEngineStepSharded1kObjects is the sharded-router variant of
// BenchmarkEngineStep1kObjects: the same 1000-object second (simulate,
// ingest, preprocess all known objects), routed through engine.Sharded at
// several shard counts. shards=1 is the router-overhead floor; higher counts
// show how ingest+preprocess throughput scales when object state is
// partitioned across independently locked shards.
func BenchmarkEngineStepSharded1kObjects(b *testing.B) {
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			plan := floorplan.DefaultOffice()
			dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
			cfg := DefaultConfig()
			cfg.Seed = 7
			cfg.Shards = n
			sys := MustNewSharded(plan, dep, cfg)
			tc := sim.DefaultTraceConfig()
			tc.NumObjects = 1000
			tc.DwellMin, tc.DwellMax = 2, 8
			world := sim.MustNew(sys.Graph(), rfid.NewSensor(dep), tc, 7)

			for i := 0; i < 30; i++ {
				tm, raws := world.Step()
				sys.Ingest(tm, raws)
			}
			objs := sys.KnownObjects()
			if len(objs) < 900 {
				b.Fatalf("warmup too cold: only %d/1000 objects known", len(objs))
			}
			sys.Preprocess(objs)

			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tm, raws := world.Step()
				sys.Ingest(tm, raws)
				sys.Preprocess(objs)
			}
			b.StopTimer()
			secs := b.Elapsed().Seconds()
			if secs > 0 {
				b.ReportMetric(float64(len(objs))*float64(b.N)/secs, "objs/s")
			}
		})
	}
}

// BenchmarkPreprocessRepeat measures the cache-warm repeat: each op ingests
// one simulated second of 500 objects (untimed), then preprocesses the same
// candidate set twice at that second, as two dashboard queries in one stream
// second do. The first call advances every cached state by a second; the
// second finds nothing to advance and reuses the memoized distributions.
// allocs/op is the figure to watch: the cache hands states over without
// copying them.
func BenchmarkPreprocessRepeat(b *testing.B) {
	plan := floorplan.DefaultOffice()
	dep := rfid.MustDeployUniform(plan, rfid.DefaultReaders, rfid.DefaultActivationRange)
	cfg := DefaultConfig()
	cfg.Seed = 7
	sys := MustNew(plan, dep, cfg)
	tc := sim.DefaultTraceConfig()
	tc.NumObjects = 500
	tc.DwellMin, tc.DwellMax = 2, 8
	world := sim.MustNew(sys.Graph(), rfid.NewSensor(dep), tc, 7)
	for i := 0; i < 30; i++ {
		tm, raws := world.Step()
		sys.Ingest(tm, raws)
	}
	objs := sys.Collector().KnownObjects()
	sys.Preprocess(objs)

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tm, raws := world.Step()
		sys.Ingest(tm, raws)
		b.StartTimer()
		sys.Preprocess(objs)
		sys.Preprocess(objs)
	}
}
