package core

import (
	"fmt"

	"repro/internal/mesh"
	"repro/internal/rtc"
	"repro/internal/traffic"
)

// Fixture declares a runnable system as a value: the mesh and its
// router and admission configuration, the real-time channels to
// request with the generator that drives each, and the best-effort
// sources. Build is the one place in the repository where channels get
// generators; scenario files, rtsim's flags, the scaling sweep and the
// experiment studies all reduce to a Fixture.
type Fixture struct {
	W, H    int
	Options Options
	// Seed seeds best-effort source i with Seed+i.
	Seed       int64
	Channels   []ChannelReq
	BestEffort []BESource
}

// ChannelReq is one real-time channel request and its generator.
type ChannelReq struct {
	Src  mesh.Coord
	Dsts []mesh.Coord
	Spec rtc.Spec
	// Pattern and Size configure the generator; Size 0 means Spec.Smax.
	Pattern traffic.TCPattern
	Size    int
	// Manual opens the channel without a generator: the caller Sends.
	Manual bool
}

// BESource is one best-effort source: Rate bytes per cycle of frames
// with payloads uniform in [SizeMin, SizeMax] (SizeMin < 1 means the
// bare probe, SizeMax < SizeMin a fixed size), to Dst or, when Dst is
// nil, uniformly to every other node.
type BESource struct {
	Src              mesh.Coord
	Dst              *mesh.Coord
	Rate             float64
	SizeMin, SizeMax int
}

// EveryNode returns one copy of src per node of a w×h mesh, in the
// mesh's row-major node order.
func EveryNode(w, h int, src BESource) []BESource {
	out := make([]BESource, 0, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			src.Src = mesh.Coord{X: x, Y: y}
			out = append(out, src)
		}
	}
	return out
}

// Built is a Fixture turned into a System.
type Built struct {
	*System
	// Channels[i] is the open channel for the fixture's i-th request, nil
	// if admission refused it; Refusals[i] is then the controller's error.
	Channels []*Channel
	Refusals []error
}

// Build assembles the system, requests every channel in order and
// attaches the best-effort sources. A refused request is recorded, not
// fatal; BuildAll is for callers that need every channel.
func (f Fixture) Build() (*Built, error) {
	sys, err := NewMesh(f.W, f.H, f.Options)
	if err != nil {
		return nil, err
	}
	b := &Built{
		System:   sys,
		Channels: make([]*Channel, len(f.Channels)),
		Refusals: make([]error, len(f.Channels)),
	}
	for i, req := range f.Channels {
		b.Channels[i], b.Refusals[i], err = sys.Open(req)
		if err != nil {
			return nil, fmt.Errorf("core: channel %d: %w", i, err)
		}
	}
	for i, be := range f.BestEffort {
		var dst traffic.DstPicker
		if be.Dst != nil {
			dst = traffic.FixedDst(*be.Dst)
		} else {
			dst = traffic.UniformDst(sys.Net, be.Src)
		}
		lo := be.SizeMin
		if lo < 1 {
			lo = traffic.ProbeBytes
		}
		app, err := traffic.NewBEApp(fmt.Sprintf("be%d", i), sys.Net, be.Src,
			dst, traffic.UniformSize(lo, be.SizeMax), be.Rate, f.Seed+int64(i))
		if err != nil {
			return nil, fmt.Errorf("core: best-effort %d: %w", i, err)
		}
		sys.RegisterNode(be.Src, app)
	}
	return b, nil
}

// BuildAll is Build for fixtures that need every channel: the first
// refused request is returned as an error.
func (f Fixture) BuildAll() (*Built, error) {
	b, err := f.Build()
	if err != nil {
		return nil, err
	}
	for i, ref := range b.Refusals {
		if ref != nil {
			return nil, fmt.Errorf("core: channel %d: %w", i, ref)
		}
	}
	return b, nil
}

// Open admits one request and, unless it is Manual, registers its
// generator in the source node's kernel shard: the generator touches
// only that node's regulator, so it stays off the parallel kernel's
// barrier path. The generator submits through the Channel facade, not
// the raw regulator handle, so it keeps flowing after a Reroute. The
// admission controller turning the request down is an outcome (refused),
// not an error; err means the generator could not be built.
func (s *System) Open(req ChannelReq) (ch *Channel, refused, err error) {
	ch, refused = s.OpenChannel(req.Src, req.Dsts, req.Spec)
	if refused != nil || req.Manual {
		return ch, refused, nil
	}
	size := req.Size
	if size == 0 {
		size = req.Spec.Smax
	}
	app, err := traffic.NewTCApp(fmt.Sprintf("tc%d", ch.adm.ID), ch, req.Spec, req.Pattern, size)
	if err != nil {
		_ = ch.Close() // the rollback of a channel that never carried traffic
		return nil, nil, err
	}
	s.RegisterNode(req.Src, app)
	return ch, nil, nil
}
