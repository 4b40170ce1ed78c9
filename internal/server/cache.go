package server

import (
	"container/list"
	"sync"
)

// cacheKey identifies one cached response. Including the entry version makes
// hot reloads self-invalidating: a reloaded database bumps its version, so
// stale responses simply stop being addressable and age out of the LRU.
type cacheKey struct {
	db       string
	version  uint64
	endpoint string
	query    string // whitespace-normalized
	depth    int
	limit    int
}

type cacheItem struct {
	key cacheKey
	val any
}

// answerCache is a bounded LRU over query results. A max of zero (or less)
// disables caching entirely.
type answerCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List
	items map[cacheKey]*list.Element
}

func newAnswerCache(max int) *answerCache {
	return &answerCache{max: max, ll: list.New(), items: make(map[cacheKey]*list.Element)}
}

func (c *answerCache) get(k cacheKey) (any, bool) {
	if c.max <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheItem).val, true
}

func (c *answerCache) put(k cacheKey, v any) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*cacheItem).val = v
		c.ll.MoveToFront(el)
		return
	}
	c.items[k] = c.ll.PushFront(&cacheItem{key: k, val: v})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheItem).key)
	}
}

func (c *answerCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
