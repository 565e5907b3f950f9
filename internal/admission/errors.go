package admission

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/router"
)

// Rejection is the typed explanation every admission refusal carries:
// which resource was the binding constraint, which admission test it
// failed, and by how much. Callers match with errors.As (or Explain)
// instead of parsing message text; the message text itself stays stable
// for humans and logs.
type Rejection interface {
	error
	// BindingResource names the resource that refused the channel: a
	// directed link ("(1,0)→+x", "(0,0)→inject"), a router node, or a
	// node's port partition.
	BindingResource() string
	// FailingTest names the admission test that failed: "utilization",
	// "busy_period", "link_failed", "buffers", or "conn_ids".
	FailingTest() string
	// FailMargin is the signed margin of the failure — how far past the
	// limit the request landed, in the test's own unit (utilization
	// fraction, demand slots, buffer slots). Always ≤ 0 on a rejection.
	FailMargin() float64
	// Router names the router that refused the channel — for a link
	// overload the router owning the binding link (the source router for
	// an injection-port failure), for a buffer or identifier exhaustion
	// the node itself. Never empty on a controller-produced rejection.
	Router() string
}

// Explain extracts the typed rejection from an admission error chain.
// The second return is false for errors that are not resource
// rejections (bad input, rollover violations, programming failures).
func Explain(err error) (Rejection, bool) {
	// Fast path: the controller's own rejections are never wrapped, and
	// errors.As pays for reflection on every audited rejection.
	switch r := err.(type) {
	case *ErrLinkOverload:
		return r, true
	case *ErrBufferExhausted:
		return r, true
	case *ErrIDExhausted:
		return r, true
	}
	var r Rejection
	if errors.As(err, &r) {
		return r, true
	}
	return nil, false
}

// ErrLinkOverload reports a failed per-link schedulability test: the
// candidate task set on the link exceeds the EDF budget. The message and
// binding-resource strings render lazily from the stored key — admission
// rejections are the mass-admission hot path, and most of these errors
// (the losing half of an XY/YX fallback pair) are never rendered at all.
type ErrLinkOverload struct {
	// link is the rendered name of the directed link that refused the
	// channel (the controller caches these); node the name of the router
	// owning it — the source router when inject marks the injection
	// pseudo-port (message wording differs), the upstream router of the
	// failing mesh link otherwise. Every controller rejection populates
	// node; only the inject wording renders it, so legacy message bytes
	// are unchanged and the router name travels in Router() instead.
	link   string
	node   string
	inject bool
	// Test is the sub-test that failed: "utilization" (ΣC/T > 1),
	// "busy_period" (dbf(t) > t at some step point), or "link_failed"
	// (the link is administratively down).
	Test string
	// At is the failing step point t and Demand the dbf(t) there
	// (busy_period only).
	At, Demand int64
	// Util is the task-set utilization with the candidate included.
	Util float64
	// Margin is the signed failure margin: 1−Util for the utilization
	// test, t−dbf(t) in slots for the busy-period test.
	Margin float64
}

// appendSignedFloat renders f the way fmt's %+.<prec>g would: an
// explicit sign, then strconv's 'g' formatting (which is what fmt uses
// underneath). TestRejectionMessageFormats pins the equivalence.
func appendSignedFloat(b []byte, f float64, prec int) []byte {
	if f >= 0 {
		b = append(b, '+')
	}
	return strconv.AppendFloat(b, f, 'g', prec, 64)
}

func (e *ErrLinkOverload) Error() string {
	// Manual strconv rendering instead of fmt: one of these renders on
	// every audited rejection, and rejections dominate a saturated
	// mass-admission run. The bytes match the original fmt formats
	// exactly (see TestRejectionMessageFormats).
	b := make([]byte, 0, 128)
	if e.inject {
		b = append(b, "admission: injection port at "...)
		b = append(b, e.node...)
	} else {
		b = append(b, "admission: link "...)
		b = append(b, e.link...)
	}
	b = append(b, " fails the schedulability test"...)
	switch e.Test {
	case "utilization":
		b = append(b, " (utilization "...)
		b = strconv.AppendFloat(b, e.Util, 'g', 4, 64)
		b = append(b, " > 1, margin "...)
		b = appendSignedFloat(b, e.Margin, 4)
	case "busy_period":
		b = append(b, " (busy_period at t="...)
		b = strconv.AppendInt(b, e.At, 10)
		b = append(b, ": demand "...)
		b = strconv.AppendInt(b, e.Demand, 10)
		b = append(b, " > "...)
		b = strconv.AppendInt(b, e.At, 10)
		b = append(b, ", margin "...)
		b = appendSignedFloat(b, e.Margin, -1)
	default:
		b = append(b, " ("...)
		b = append(b, e.Test...)
	}
	b = append(b, ')')
	return string(b)
}

// BindingResource implements Rejection.
func (e *ErrLinkOverload) BindingResource() string { return e.link }

// FailingTest implements Rejection.
func (e *ErrLinkOverload) FailingTest() string { return e.Test }

// FailMargin implements Rejection.
func (e *ErrLinkOverload) FailMargin() float64 { return e.Margin }

// Router implements Rejection: the router owning the refusing link.
func (e *ErrLinkOverload) Router() string { return e.node }

// ErrBufferExhausted reports a failed packet-memory reservation at one
// router: the channel's buffer bound does not fit the shared pool (port
// negative) or a port's partition. Like ErrLinkOverload, the strings
// render lazily from the stored coordinates.
type ErrBufferExhausted struct {
	// node is the rendered name of the router whose memory ran out; port
	// the binding partition under Partitioned accounting (negative under
	// SharedPool).
	node string
	port int
	// Used slots were already reserved, Need more were requested, Limit
	// is the pool or partition size.
	Used, Need, Limit int
}

func (e *ErrBufferExhausted) Error() string {
	b := make([]byte, 0, 96)
	b = append(b, "admission: "...)
	b = append(b, e.node...)
	if e.port < 0 {
		b = append(b, " out of packet buffers ("...)
	} else {
		b = append(b, " port "...)
		b = append(b, router.PortName(e.port)...)
		b = append(b, " partition full ("...)
	}
	b = strconv.AppendInt(b, int64(e.Used), 10)
	b = append(b, " used + "...)
	b = strconv.AppendInt(b, int64(e.Need), 10)
	b = append(b, " needed > "...)
	b = strconv.AppendInt(b, int64(e.Limit), 10)
	b = append(b, ')')
	return string(b)
}

// BindingResource implements Rejection.
func (e *ErrBufferExhausted) BindingResource() string {
	if e.port < 0 {
		return e.node
	}
	return e.node + "→" + router.PortName(e.port)
}

// FailingTest implements Rejection.
func (e *ErrBufferExhausted) FailingTest() string { return "buffers" }

// FailMargin implements Rejection: free slots minus needed slots,
// negative by the shortfall.
func (e *ErrBufferExhausted) FailMargin() float64 {
	return float64(e.Limit - e.Used - e.Need)
}

// Router implements Rejection: the router whose packet memory ran out.
func (e *ErrBufferExhausted) Router() string { return e.node }

// ErrIDExhausted reports connection-identifier exhaustion during id
// assignment along the route tree.
type ErrIDExhausted struct {
	// Node is the router that had no free identifier.
	Node string
	// Common is true when the failure was finding one id free across
	// every child of Node (the multicast rewrite constraint), rather
	// than any free id at Node itself.
	Common bool

	msg string
}

func (e *ErrIDExhausted) Error() string { return e.msg }

// BindingResource implements Rejection.
func (e *ErrIDExhausted) BindingResource() string { return e.Node }

// FailingTest implements Rejection.
func (e *ErrIDExhausted) FailingTest() string { return "conn_ids" }

// FailMargin implements Rejection: one more identifier than the table
// holds was needed.
func (e *ErrIDExhausted) FailMargin() float64 { return -1 }

// Router implements Rejection: the router with no free identifier.
func (e *ErrIDExhausted) Router() string { return e.Node }

// ErrNotActive refuses a Teardown or Reroute of a channel the controller
// does not hold: a nil channel (ID −1), one already torn down, or one
// admitted by a different controller whose id merely collides.
type ErrNotActive struct {
	ID int
}

func (e *ErrNotActive) Error() string {
	return "admission: channel " + strconv.Itoa(e.ID) + " not active"
}

// ErrBadLayout refuses a malformed PlanSpec: misuse of the layout door,
// not a resource refusal, so Explain reports false for it. Callers match
// it with errors.As and switch on Reason.
type ErrBadLayout struct {
	// Reason names the defect: "empty_route", "split_length" (DSplit and
	// Route differ in length), "not_a_link", "leaves_mesh", "revisits",
	// "no_local_delivery", "wrong_end" (the route stops short of Dst),
	// "bound_below_service" (a d_j under the message service time) or
	// "split_over_budget" (Σd_j > D).
	Reason string
	msg    string
}

func (e *ErrBadLayout) Error() string { return e.msg }

// badLayout builds an ErrBadLayout with fmt's rendering of format.
func badLayout(reason, format string, args ...any) error {
	return &ErrBadLayout{Reason: reason, msg: fmt.Sprintf(format, args...)}
}

// overloadError builds the typed link rejection for one analysis
// report; inject selects the injection-port message wording. node is
// always required — Router() and audit refusal records surface it even
// when the forward-link wording doesn't render it — and the legacy
// message renders byte-identically, just lazily.
func overloadError(link, node string, rep edfReport, inject bool) *ErrLinkOverload {
	return &ErrLinkOverload{
		link: link, node: node, inject: inject, Test: rep.test, At: rep.at,
		Demand: rep.demand, Util: rep.util, Margin: rep.margin,
	}
}
