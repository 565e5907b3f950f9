// Avionics models the kind of system the paper's introduction motivates:
// a flight-control computer on a mesh where a controller node multicasts
// actuator commands to four surface nodes every control period, sensor
// nodes stream readings back, and a maintenance task bulk-transfers logs
// as best-effort traffic — all on the same wires, with the command and
// sensor channels holding hard deadlines regardless of the log transfer.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/packet"
	"repro/internal/router"
	"repro/internal/rtc"
)

const (
	controlPeriod = 50  // slots between actuator commands
	controlBound  = 100 // end-to-end deadline for commands, slots
	sensorPeriod  = 25
	sensorBound   = 120
)

func main() {
	controller := mesh.Coord{X: 1, Y: 1}
	actuators := []mesh.Coord{{X: 0, Y: 0}, {X: 3, Y: 0}, {X: 0, Y: 3}, {X: 3, Y: 3}}
	sensors := []mesh.Coord{{X: 2, Y: 0}, {X: 0, Y: 2}, {X: 3, Y: 2}}

	logSink := mesh.Coord{X: 0, Y: 1}
	fx := core.Fixture{
		W: 4, H: 4, Seed: 42,
		// One multicast channel carries each command to all four
		// actuators; the control loop below sends on it by hand.
		Channels: []core.ChannelReq{{
			Src: controller, Dsts: actuators, Manual: true,
			Spec: rtc.Spec{Imin: controlPeriod, Smax: 18, D: controlBound},
		}},
		// The maintenance task dumps logs as best-effort bulk transfers.
		BestEffort: []core.BESource{{Src: mesh.Coord{X: 2, Y: 2}, Dst: &logSink, Rate: 0.8, SizeMin: 900, SizeMax: 900}},
	}
	// Sensor channels stream readings back to the controller.
	for _, s := range sensors {
		fx.Channels = append(fx.Channels, core.ChannelReq{
			Src: s, Dsts: []mesh.Coord{controller},
			Spec: rtc.Spec{Imin: sensorPeriod, Smax: 36, D: sensorBound},
		})
	}
	sys, err := fx.BuildAll()
	if err != nil {
		log.Fatal(err)
	}
	cmd := sys.Channels[0]
	fmt.Printf("command channel: multicast to %d actuators, %d slots/hop budget\n",
		len(actuators), cmd.Admitted().LocalD)

	// Count command arrivals per actuator and watch worst latency.
	arrivals := map[mesh.Coord]int{}
	for _, a := range actuators {
		a := a
		sys.Sink(a).OnTC = func(d router.DeliveredTC) { arrivals[a]++ }
	}

	// Fly for 40 control periods.
	const periods = 40
	for i := 0; i < periods; i++ {
		if err := cmd.Send([]byte(fmt.Sprintf("surfaces %02d", i))); err != nil {
			log.Fatal(err)
		}
		sys.Run(controlPeriod * packet.TCBytes)
	}
	sys.Run(controlBound * packet.TCBytes)

	sum := sys.Summarize()
	fmt.Printf("after %d control periods:\n", periods)
	for _, a := range actuators {
		fmt.Printf("  actuator %s received %d/%d commands\n", a, arrivals[a], periods)
		if arrivals[a] != periods {
			log.Fatal("actuator missed commands")
		}
	}
	fmt.Printf("sensor messages delivered to controller: %d\n", sys.Sink(controller).TCCount)
	fmt.Printf("maintenance log bytes moved best-effort: %d packets\n", sum.BEDelivered)
	fmt.Printf("deadline misses across the network: %d\n", sum.TCMisses)
	if sum.TCMisses != 0 {
		log.Fatal("hard deadline missed under best-effort load")
	}
	fmt.Println("ok: control loop held its deadlines under bulk maintenance traffic")
}
