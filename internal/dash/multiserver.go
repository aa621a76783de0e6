package dash

import (
	"fmt"
	"net/http"
	"strings"
)

// VideoMux serves several videos from one origin, the namespace the edge
// tier shards over:
//
//	GET /v/<video-id>/<path>  -> that video's Server (manifest, playlists,
//	                             segments — the full single-video routes)
//	GET /<path>               -> the first (default) video, so a VideoMux
//	                             origin is a drop-in replacement for a
//	                             single-video Server
//
// Each origin in a sharded deployment carries the full catalog (the
// replication that makes consistent-hash failover possible); the edge's
// hash ring decides which origin is primary for which video.
type VideoMux struct {
	def     *Server
	servers map[string]*Server
}

// NewVideoMux builds an origin serving every given video, the first one
// doubling as the default for un-prefixed paths.
func NewVideoMux(videos ...*Server) (*VideoMux, error) {
	if len(videos) == 0 {
		return nil, fmt.Errorf("dash: VideoMux needs at least one server")
	}
	m := &VideoMux{def: videos[0], servers: make(map[string]*Server, len(videos))}
	for _, s := range videos {
		id := s.Manifest().VideoID
		if _, dup := m.servers[id]; dup {
			return nil, fmt.Errorf("dash: VideoMux got video %q twice", id)
		}
		m.servers[id] = s
	}
	return m, nil
}

// Handler returns the origin handler routing /v/<id>/... per video.
func (m *VideoMux) Handler() http.Handler {
	handlers := make(map[string]http.Handler, len(m.servers))
	for id, s := range m.servers {
		handlers[id] = s.Handler()
	}
	def := m.def.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if id, rest, ok := splitVideoPath(r.URL.Path); ok {
			h := handlers[id]
			if h == nil {
				http.NotFound(w, r)
				return
			}
			r2 := r.Clone(r.Context())
			r2.URL.Path = rest
			h.ServeHTTP(w, r2)
			return
		}
		def.ServeHTTP(w, r)
	})
}

// splitVideoPath decomposes "/v/<id>/<rest>" (ok=false for other shapes).
func splitVideoPath(p string) (id, rest string, ok bool) {
	tail, found := strings.CutPrefix(p, "/v/")
	if !found {
		return "", "", false
	}
	i := strings.IndexByte(tail, '/')
	if i <= 0 {
		return "", "", false
	}
	return tail[:i], tail[i:], true
}
