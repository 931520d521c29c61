package wire

// SetHook installs h as the server's test seam: every stream runs it after
// admission, before its work. Call it before Serve.
func (s *Server) SetHook(h func(*Request)) { s.hook = h }
