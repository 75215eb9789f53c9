package dist

// SetBase repoints the client at a (re)started coordinator address.
func (c *Client) SetBase(url string) { c.base.Store(url) }
