#pragma once

// FIFO-bounded ticket store.
//
// The simulated control plane carries routing and small scalars but no
// structured payloads, so structured data (query bodies, result lists,
// stats deltas) travels via parked tickets: the producer parks the
// payload, the datagram carries the ticket, the consumer claims (or,
// for retransmission-idempotent protocols, peeks at) it at the arrival
// instant. The oldest payloads are evicted past `capacity`.

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <utility>

namespace peerlab {

template <typename T>
class TicketStore {
 public:
  explicit TicketStore(std::size_t capacity = 4096) : capacity_(capacity) {}

  std::uint64_t park(T payload) {
    const std::uint64_t ticket = ++next_;
    parked_.emplace(ticket, std::move(payload));
    order_.push_back(ticket);
    while (order_.size() > capacity_) {
      parked_.erase(order_.front());
      order_.pop_front();
    }
    return ticket;
  }

  /// Claims and removes; default-constructed T when unknown.
  [[nodiscard]] T claim(std::uint64_t ticket) {
    const auto it = parked_.find(ticket);
    if (it == parked_.end()) return T{};
    T payload = std::move(it->second);
    parked_.erase(it);
    return payload;
  }

  /// Reads without removing (for retransmission-idempotent protocols).
  [[nodiscard]] const T* peek(std::uint64_t ticket) const {
    const auto it = parked_.find(ticket);
    return it == parked_.end() ? nullptr : &it->second;
  }

  void release(std::uint64_t ticket) { parked_.erase(ticket); }

  [[nodiscard]] bool contains(std::uint64_t ticket) const {
    return parked_.count(ticket) > 0;
  }

 private:
  std::size_t capacity_;
  std::unordered_map<std::uint64_t, T> parked_;
  std::deque<std::uint64_t> order_;
  std::uint64_t next_ = 0;
};

}  // namespace peerlab
