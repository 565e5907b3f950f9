package router

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/timing"
)

// BenchmarkTick drives one router under a steady self-delivery load. The
// tick bumps only the router's own counters; a metrics registry reads
// them by folding between runs, so there is no instrumented tick to
// price beside this one.
func BenchmarkTick(b *testing.B) {
	k := sim.NewKernel()
	r := MustNew("bench", DefaultConfig())
	k.Register(r)
	if err := r.SetConnection(9, 9, 8, 1<<PortLocal); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%64 == 0 {
			now := timing.CyclesToSlot(int64(i), packet.TCBytes)
			r.InjectTC(packet.TCPacket{Conn: 9, Stamp: packet.StampOf(timing.Stamp(now + 8))})
		}
		k.Run(1)
		if i%4096 == 0 {
			r.DrainTC()
		}
	}
}
