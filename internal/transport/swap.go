package transport

import (
	"sync"

	"seccloud/internal/wire"
)

// SwappableHandler is one server slot's stable network identity: a crash
// or restart swaps the Handler behind it while every client keeps its
// existing connection object, exactly as a process restart behind a
// fixed address looks to the rest of the fleet. The chaos harness models
// restarts through it, and every daemon listener serves through one.
type SwappableHandler struct {
	mu sync.Mutex
	h  Handler
}

// NewSwappableHandler wraps h as the slot's first incarnation.
func NewSwappableHandler(h Handler) *SwappableHandler {
	return &SwappableHandler{h: h}
}

// Handle forwards to the current incarnation.
func (s *SwappableHandler) Handle(m wire.Message) wire.Message {
	s.mu.Lock()
	h := s.h
	s.mu.Unlock()
	return h.Handle(m)
}

// Swap replaces the incarnation behind the identity (e.g. with a fresh
// process recovered from the WAL).
func (s *SwappableHandler) Swap(h Handler) {
	s.mu.Lock()
	s.h = h
	s.mu.Unlock()
}

// Current returns the incarnation currently behind the identity.
func (s *SwappableHandler) Current() Handler {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.h
}
