package rpc

import (
	"errors"
	"fmt"
	"net"
)

// RemoteError is an application-level failure returned by the server: the
// request was received, executed, and rejected by the handler (a kindError
// frame).  It is distinct from transport failures, which leave the request's
// fate unknown.
type RemoteError struct {
	// Msg is the error text produced by the remote handler.
	Msg string
}

func (e *RemoteError) Error() string { return "rpc: remote error: " + e.Msg }

// OverloadError is a typed shed: the server refused the request before
// doing its work, e.g. because its admission limit was hit.  It travels as
// a kindReject frame.  Sheds are deliberate backpressure, so they are never
// retried and never consume retry budget: retrying into an overloaded tier
// multiplies the load that caused the shed.
type OverloadError struct {
	// Msg names what was shed and why (e.g. "admission limit").
	Msg string
}

func (e *OverloadError) Error() string { return "rpc: overloaded: " + e.Msg }

// Overloadf builds an OverloadError from a format string.
func Overloadf(format string, args ...any) *OverloadError {
	return &OverloadError{Msg: fmt.Sprintf(format, args...)}
}

// IsOverload reports whether err is (or wraps) a typed shed.  Load
// generators use it to count goodput-neutral rejections separately from
// real failures.
func IsOverload(err error) bool {
	var oe *OverloadError
	return errors.As(err, &oe)
}

// ErrClass partitions call failures by what they imply about the request's
// fate — which is what decides retry safety.  A connection-class error means
// the request may never have reached the server, so re-sending it to another
// replica is safe; a timeout means the caller stopped waiting (hedging a
// read-mostly OLDI request is safe); an application error means the server
// processed the request and rejected it, so a retry would only repeat the
// rejection.
type ErrClass int

const (
	// ClassApplication — the remote handler executed and returned an
	// error.  Not retryable.
	ClassApplication ErrClass = iota
	// ClassTimeout — the call's deadline expired before a response.
	ClassTimeout
	// ClassConnection — the transport failed (dial, reset, local close).
	ClassConnection
	// ClassOverload — the server shed the request before executing it
	// (kindReject).  Not retryable: the shed is the backpressure signal,
	// and retrying would feed the overload it reports.
	ClassOverload
)

// String names the class.
func (c ErrClass) String() string {
	switch c {
	case ClassApplication:
		return "application"
	case ClassTimeout:
		return "timeout"
	case ClassConnection:
		return "connection"
	case ClassOverload:
		return "overload"
	}
	return "unknown"
}

// Classify maps a call error to its ErrClass.  Unrecognized errors are
// transport failures by construction: every handler-produced error crosses
// the wire as a RemoteError — or, for one member of a batched RPC, as a
// BatchItemError — so anything else came from the connection.
func Classify(err error) ErrClass {
	var oe *OverloadError
	if errors.As(err, &oe) {
		return ClassOverload
	}
	var re *RemoteError
	if errors.As(err, &re) {
		return ClassApplication
	}
	// A per-item failure inside an otherwise-delivered batch: the leaf
	// executed the item and rejected it.  Without this case the default
	// below would misclassify it as a connection failure and retry work
	// the server already completed.
	var be *BatchItemError
	if errors.As(err, &be) {
		return ClassApplication
	}
	if errors.Is(err, ErrTimeout) {
		return ClassTimeout
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return ClassTimeout
	}
	return ClassConnection
}

// Retryable reports whether a failed call may safely be re-issued to
// another replica: true for timeout- and connection-class failures, false
// for application errors and overload sheds.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	switch Classify(err) {
	case ClassApplication, ClassOverload:
		return false
	}
	return true
}
