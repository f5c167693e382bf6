//! The active-switch programming model: handlers and their kernel API.
//!
//! §2: an incoming active message invokes a *handler* on a switch CPU,
//! message-driven-processor style. Handlers access the message payload
//! through memory-mapped addresses (translated by the ATB into data
//! buffers, stalling on per-line valid bits), keep small tables in
//! switch-local memory (through the 1 KB D-cache), compose outgoing
//! messages in data buffers, and ask the small run-time kernel to send
//! messages, initiate I/O requests, and de-allocate buffers.
//!
//! A [`Handler`] implementation is *real code over real bytes*: the MD5
//! handler computes real digests, the Grep handler runs a real DFA.
//! Timing is charged through the [`HandlerCtx`] methods as the data is
//! processed.

use asan_cpu::Cpu;
use asan_net::{HandlerId, NodeId};
use asan_sim::snap::{SnapError, SnapReader, SnapWriter};
use asan_sim::{Period, SimTime};

use crate::atb::Atb;
use crate::buffer::{BufId, LINE_BYTES};
use crate::dba::BufferAdmin;

/// Width of one switch-CPU access to a data buffer (a double-word load
/// through its dedicated buffer port).
pub const BUFFER_ACCESS_BYTES: usize = 8;

/// Header information of the message that invoked the handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgInfo {
    /// Sender of the message.
    pub src: NodeId,
    /// Handler field from the 64-bit active header.
    pub handler: HandlerId,
    /// Address the payload is mapped at (32-bit header field).
    pub addr: u32,
    /// Payload length.
    pub len: usize,
    /// Flow sequence number.
    pub seq: u32,
}

/// An outgoing message composed by a handler, to be injected by the
/// switch's send unit. Its data buffer is released as the injection
/// port drains (modeled inside [`HandlerCtx`]); the cluster layer only
/// transmits the message through the fabric.
#[derive(Debug, Clone)]
pub struct OutMsg {
    /// Destination node.
    pub dst: NodeId,
    /// Handler to invoke at the destination (for switch→switch or
    /// host-notification actives), or `None` for plain data.
    pub handler: Option<HandlerId>,
    /// Address field for the destination's mapping.
    pub addr: u32,
    /// Real payload bytes (≤ one buffer; the kernel splits larger sends).
    pub data: Vec<u8>,
    /// When the send unit may inject it.
    pub ready: SimTime,
    /// The data buffer that held it until the send unit drained it.
    pub buf: BufId,
}

/// A disk request initiated *from the switch* (used by Tar).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchIoReq {
    /// The TCA to read from.
    pub tca: NodeId,
    /// File index on that TCA.
    pub file: usize,
    /// Byte offset within the file.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
    /// Node the data should be delivered to.
    pub deliver_to: NodeId,
    /// Handler invoked per delivered packet (when `deliver_to` is a
    /// switch), or `None` for raw delivery.
    pub deliver_handler: Option<HandlerId>,
    /// Base address for the delivered data's mapping.
    pub deliver_addr: u32,
    /// When the request left the handler.
    pub ready: SimTime,
}

/// Kernel services available to a handler during one invocation.
///
/// All methods charge switch-CPU time as they go; `now()` is the
/// handler's current position on the switch CPU's clock.
#[derive(Debug)]
pub struct HandlerCtx<'a> {
    pub(crate) cpu: &'a mut Cpu,
    pub(crate) dba: &'a mut BufferAdmin,
    pub(crate) atb: &'a mut Atb,
    pub(crate) msg: MsgInfo,
    pub(crate) input: BufId,
    pub(crate) outbox: &'a mut Vec<OutMsg>,
    pub(crate) io_reqs: &'a mut Vec<SwitchIoReq>,
    pub(crate) switch_node: NodeId,
    pub(crate) keep_input: bool,
    pub(crate) input_freed: bool,
    /// Cost of posting one message to the send unit, in cycles.
    pub(crate) send_unit_cycles: u64,
    /// The send unit's injection port: busy-until time (shared across
    /// invocations; models crossbar injection serialization).
    pub(crate) send_unit_free: &'a mut SimTime,
    /// Per-byte injection time toward the crossbar.
    pub(crate) injection: Period,
    /// Whether the hardware ATB translates addresses (see
    /// [`crate::active::ActiveSwitchConfig::atb_enabled`]).
    pub(crate) atb_enabled: bool,
}

impl HandlerCtx<'_> {
    /// Schedules the send unit to drain `wire_bytes` from `buf` no
    /// earlier than `ready`, releasing the buffer when the crossbar has
    /// absorbed it. Returns the drain time.
    fn schedule_drain(&mut self, buf: BufId, wire_bytes: u64, ready: SimTime) -> SimTime {
        let start = ready.max(*self.send_unit_free);
        let drain = start + self.injection.times(wire_bytes);
        *self.send_unit_free = drain;
        self.dba.release(buf, drain);
        drain
    }

    /// The invoking message's header information.
    pub fn msg(&self) -> MsgInfo {
        self.msg
    }

    /// The switch this handler runs on.
    pub fn switch_node(&self) -> NodeId {
        self.switch_node
    }

    /// Current time on this switch CPU.
    pub fn now(&self) -> SimTime {
        self.cpu.now()
    }

    /// Charges `instrs` instructions of computation.
    pub fn compute(&mut self, instrs: u64) {
        self.cpu.compute(instrs);
    }

    /// Reads `len` mapped bytes starting at `addr`, charging one
    /// buffer-port access per double-word and stalling on valid bits.
    /// Returns the real bytes.
    ///
    /// # Panics
    ///
    /// Panics if the range is not currently mapped (a correctness bug in
    /// the handler or its host-side partner).
    pub fn read_mapped(&mut self, addr: u32, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut a = addr;
        let mut remaining = len;
        while remaining > 0 {
            if !self.atb_enabled {
                // Software (bufId, offset) arithmetic per window: bounds
                // check, table walk, pointer fix-up (§3 motivates the
                // ATB by this inconvenience).
                self.cpu.compute(14);
            }
            let (buf, off) = self
                .atb
                .translate(a)
                .unwrap_or_else(|| panic!("address {a:#x} not mapped"));
            let window = (crate::buffer::BUFFER_BYTES - off).min(remaining);
            // Stall on each line's valid bit, then one access per dword.
            let mut o = off;
            let end = off + window;
            while o < end {
                let line_end = ((o / LINE_BYTES) + 1) * LINE_BYTES;
                let chunk = line_end.min(end) - o;
                if let Some(valid) = self.dba.buffer(buf).valid_at(o) {
                    self.cpu.stall_until(valid);
                }
                let accesses = chunk.div_ceil(BUFFER_ACCESS_BYTES) as u64;
                self.cpu.compute(accesses);
                out.extend_from_slice(self.dba.buffer(buf).bytes(o, chunk));
                o += chunk;
            }
            a += u32::try_from(window).expect("a window within one buffer");
            remaining -= window;
        }
        out
    }

    /// The full payload of the invoking message (reads it through the
    /// mapped buffer, charging accordingly).
    pub fn payload(&mut self) -> Vec<u8> {
        self.read_mapped(self.msg.addr, self.msg.len)
    }

    /// Streams over `len` mapped bytes at `addr` charging
    /// `instr_per_dword` extra instructions per 8-byte access, without
    /// materializing the data (for pure filtering cost accounting when
    /// the caller already has the bytes via [`payload`]).
    ///
    /// [`payload`]: HandlerCtx::payload
    pub fn charge_stream(&mut self, len: usize, instr_per_dword: u64) {
        let dwords = len.div_ceil(BUFFER_ACCESS_BYTES) as u64;
        self.cpu.compute(dwords * instr_per_dword);
    }

    /// Loads from switch-local memory (tables like HashJoin's
    /// bit-vector) through the 1 KB D-cache.
    pub fn mem_load(&mut self, addr: u64) {
        self.cpu.load(addr);
    }

    /// Stores to switch-local memory through the D-cache.
    pub fn mem_store(&mut self, addr: u64) {
        self.cpu.store(addr);
    }

    /// Keeps the input buffer allocated after this invocation (the
    /// handler will free it explicitly later). Rarely needed — the
    /// kernel normally frees it on return, matching the streaming model.
    pub fn keep_input(&mut self) {
        self.keep_input = true;
    }

    /// Allocates a data buffer for handler-private use (e.g. a reduction
    /// accumulator); stalls until one is free.
    pub fn alloc_buffer(&mut self) -> BufId {
        let (id, granted) = self.dba.alloc(self.cpu.now());
        self.cpu.stall_until(granted);
        self.cpu.compute(2); // kernel bookkeeping
        id
    }

    /// Releases a handler-held buffer.
    pub fn free_buffer(&mut self, id: BufId) {
        self.cpu.compute(2);
        self.dba.release(id, self.cpu.now());
    }

    /// Reads from a handler-held buffer (1 port access per dword; the
    /// data is locally produced, so no valid-bit stalls).
    pub fn buffer_read(&mut self, id: BufId, off: usize, len: usize) -> Vec<u8> {
        let accesses = len.div_ceil(BUFFER_ACCESS_BYTES) as u64;
        self.cpu.compute(accesses);
        self.dba.buffer(id).bytes(off, len).to_vec()
    }

    /// Writes into a handler-held buffer.
    pub fn buffer_write(&mut self, id: BufId, off: usize, data: &[u8]) {
        let accesses = data.len().div_ceil(BUFFER_ACCESS_BYTES) as u64;
        self.cpu.compute(accesses);
        let now = self.cpu.now();
        self.dba.buffer_mut(id).write(off, data, now);
    }

    /// Composes and posts an outgoing message of `data` to `dst`.
    ///
    /// The kernel allocates a data buffer per MTU-sized chunk, copies
    /// the bytes through the buffer port, and posts each chunk to the
    /// send unit; the chunk's buffer is released when the crossbar has
    /// drained it (the cluster layer reports that time).
    pub fn send(&mut self, dst: NodeId, handler: Option<HandlerId>, addr: u32, data: &[u8]) {
        if data.is_empty() {
            let buf = self.alloc_buffer();
            self.cpu.compute(self.send_unit_cycles);
            let ready = self.cpu.now();
            self.schedule_drain(buf, 16, ready);
            self.outbox.push(OutMsg {
                dst,
                handler,
                addr,
                data: Vec::new(),
                ready,
                buf,
            });
            return;
        }
        let mut offset = 0usize;
        while offset < data.len() {
            let chunk = (data.len() - offset).min(crate::buffer::BUFFER_BYTES);
            let buf = self.alloc_buffer();
            let accesses = chunk.div_ceil(BUFFER_ACCESS_BYTES) as u64;
            self.cpu.compute(accesses);
            let now = self.cpu.now();
            self.dba
                .buffer_mut(buf)
                .write(0, &data[offset..offset + chunk], now);
            self.cpu.compute(self.send_unit_cycles);
            let ready = self.cpu.now();
            self.schedule_drain(buf, (chunk + 16) as u64, ready);
            self.outbox.push(OutMsg {
                dst,
                handler,
                addr: addr.wrapping_add(u32::try_from(offset).expect("a message offset")),
                data: data[offset..offset + chunk].to_vec(),
                ready,
                buf,
            });
            offset += chunk;
        }
    }

    /// Posts a *held* buffer's current contents to the send unit without
    /// re-copying (the buffer was filled via
    /// [`buffer_write`](HandlerCtx::buffer_write)). The buffer is
    /// released when the crossbar drains it; the handler must allocate a
    /// fresh one before reusing the slot.
    pub fn send_buffer(&mut self, buf: BufId, dst: NodeId, handler: Option<HandlerId>, addr: u32) {
        self.cpu.compute(self.send_unit_cycles);
        let data = {
            let b = self.dba.buffer(buf);
            b.bytes(0, b.len()).to_vec()
        };
        let ready = self.cpu.now();
        let wire = (data.len() + 16) as u64; // payload + wire header
        self.schedule_drain(buf, wire, ready);
        self.outbox.push(OutMsg {
            dst,
            handler,
            addr,
            data,
            ready,
            buf,
        });
    }

    /// Initiates a disk read from the switch (Tar's handler): the
    /// embedded kernel posts a request to `tca` asking it to deliver
    /// `[offset, offset+len)` of `file` to `deliver_to`.
    #[expect(
        clippy::too_many_arguments,
        reason = "the fields of one SwitchIoReq, the handler API's disk-read call"
    )]
    pub fn request_disk_read(
        &mut self,
        tca: NodeId,
        file: usize,
        offset: u64,
        len: u64,
        deliver_to: NodeId,
        deliver_handler: Option<HandlerId>,
        deliver_addr: u32,
    ) {
        // Embedded-kernel request cost (§2.1: "modest kernel support").
        self.cpu.compute(800);
        self.io_reqs.push(SwitchIoReq {
            tca,
            file,
            offset,
            len,
            deliver_to,
            deliver_handler,
            deliver_addr,
            ready: self.cpu.now(),
        });
    }

    /// The paper's `Deallocate_Buffer`: releases all buffers mapped
    /// entirely below `end`, through the ATB → DBA path.
    pub fn dealloc_below(&mut self, end: u32) {
        self.cpu.compute(2);
        let now = self.cpu.now();
        for buf in self.atb.deallocate_below(end) {
            if buf == self.input {
                self.input_freed = true;
            }
            self.dba.release(buf, now);
        }
    }
}

/// An active-switch message handler.
///
/// Implementations hold their persistent per-flow state (bit-vectors,
/// DFA state, MD5 chains…) as ordinary Rust fields; each arriving packet
/// of the flow produces one `on_message` invocation, in arrival order.
pub trait Handler {
    /// Processes one arriving active message.
    fn on_message(&mut self, ctx: &mut HandlerCtx<'_>);

    /// Pins invocations for `msg` to a specific switch CPU (the MD5
    /// multi-processor experiments use `seq % num_cpus`); `None` lets
    /// the dispatch unit pick the earliest-free CPU.
    fn cpu_affinity(&self, _msg: &MsgInfo) -> Option<usize> {
        None
    }

    /// Downcasting hook so benchmarks can read back state accumulated
    /// in the handler after a run (`Some(self)` in implementations that
    /// support it).
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }

    /// Writes the handler's persistent per-flow state into a snapshot.
    /// The default writes nothing, which is correct only for stateless
    /// handlers — any handler whose fields evolve across invocations
    /// must override both this and
    /// [`restore_state`](Handler::restore_state) or a restored run will
    /// diverge from the unbroken one. Declare the state once with
    /// `asan_sim::snap_fields!` and delegate both hooks to it.
    fn snapshot_state(&self, _w: &mut SnapWriter) {}

    /// Overwrites the handler's persistent state from a snapshot
    /// written by [`snapshot_state`](Handler::snapshot_state).
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] when the snapshot bytes cannot be
    /// decoded into this handler's state.
    fn restore_state(&mut self, _r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        Ok(())
    }
}
