package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
)

// Broadcaster fans one job's event stream out to any number of SSE
// subscribers. Slow subscribers never block the publisher: a
// subscriber whose buffer is full drops intermediate progress events
// (each sample supersedes the last) but always receives status changes
// and the terminal event, because Publish retries those after clearing
// room.
type Broadcaster struct {
	mu   sync.Mutex
	subs map[chan Event]struct{}
	// last terminal event, replayed to late subscribers so a client
	// attaching after completion still gets its answer.
	done *Event
}

func newBroadcaster() *Broadcaster {
	return &Broadcaster{subs: map[chan Event]struct{}{}}
}

// Subscribe registers a new listener. If the job already finished, the
// terminal event is pre-queued. The returned cancel func must be
// called exactly once; it closes the channel.
func (b *Broadcaster) Subscribe() (<-chan Event, func()) {
	ch := make(chan Event, 16)
	b.mu.Lock()
	if b.done != nil {
		ch <- *b.done
	}
	b.subs[ch] = struct{}{}
	b.mu.Unlock()
	cancel := func() {
		b.mu.Lock()
		if _, ok := b.subs[ch]; ok {
			delete(b.subs, ch)
			close(ch)
		}
		b.mu.Unlock()
	}
	return ch, cancel
}

// Publish delivers ev to every subscriber. Progress events are
// droppable; status and done events evict the oldest buffered event
// until they fit.
func (b *Broadcaster) Publish(ev Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ev.Type == "done" {
		done := ev
		b.done = &done
	}
	for ch := range b.subs {
		select {
		case ch <- ev:
			continue
		default:
		}
		if ev.Type == "progress" {
			continue // droppable; the subscriber keeps older events
		}
		// Must-deliver event on a full buffer: evict the oldest until
		// it fits. Publish holds the mutex, so no other goroutine can
		// race the eviction.
		delivered := false
		for !delivered {
			select {
			case ch <- ev:
				delivered = true
			default:
				select {
				case <-ch:
				default:
				}
			}
		}
	}
}

// streamEvents serves one job's Broadcaster as a server-sent-event
// stream until the job's terminal event or client disconnect. status
// is the job's state at call time: non-terminal states open the stream
// with a status snapshot; terminal jobs get their replayed "done" from
// the subscription instead.
func streamEvents(w http.ResponseWriter, r *http.Request, b *Broadcaster, jobID, status string) {
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		HTTPError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}

	ch, cancel := b.Subscribe()
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	if !Terminal(status) {
		writeSSE(w, Event{Type: "status", Job: jobID, Status: status})
	}
	fl.Flush()

	for {
		select {
		case <-r.Context().Done():
			return
		case ev := <-ch:
			writeSSE(w, ev)
			fl.Flush()
			if ev.Type == "done" {
				return
			}
		}
	}
}

func writeSSE(w http.ResponseWriter, ev Event) {
	payload, err := json.Marshal(ev)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, payload)
}
